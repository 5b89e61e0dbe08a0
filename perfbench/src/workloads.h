/**
 * @file
 * The benchmark's three workloads. Each runs one "leg": whole rounds of
 * the same operations until the leg's time is spent, then the output
 * checks, and returns every metric (end-to-end and per-layer) with its
 * unit. perfbench/run.py picks which legs to run and which metrics to
 * report; see perfbench/README.md.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct LegConfig {
    std::string workload;
    /** Drives the load (arrivals, cluster noise); never the training
     *  seeds of train-social, which are fixed. */
    uint64_t seed = 1;
    /** Whole rounds run until this many host seconds are spent (and,
     *  in an untraced fleet-mixed leg, 1000 decide phases are timed). */
    double seconds = 10.0;
    /** Record spans (per-layer figures); off for end-to-end legs. */
    bool trace = false;
    /** NowNs() on entry to main: the first set-up is also timed from
     *  here. */
    int64_t process_start_ns = 0;
    /** Directory holding the committed hotel.model / social.model. */
    std::string models_dir = "bench_cache";
    /** Where the spans go when traced ("" = not written). */
    std::string spans_path;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct LegResult {
    /** True iff no check failed on an operation that did not fail. */
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Failed checks on operations that did not fail. */
    std::vector<std::string> failures;
    /** Why each failed operation failed. */
    std::vector<std::string> notes;
    /** Training seeds of train-social (empty elsewhere). */
    std::vector<uint64_t> train_seeds;
    std::vector<Metric> metrics;
};

/** Runs one leg of the named workload (throws on an unknown name). */
LegResult RunLeg(const LegConfig& cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
