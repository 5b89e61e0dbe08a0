/**
 * @file
 * sinan_perfbench: runs one leg of one benchmark workload and prints
 * its result as a single JSON line (perfbench/run.py drives it).
 *
 *   sinan_perfbench --workload solo-social --seed 1 --seconds 10
 *                   [--threads N] [--trace 0|1]
 *                   [--models DIR] [--spans FILE]
 *
 * --threads 0 (the default) keeps the program's default thread count
 * (SINAN_THREADS, else the hardware concurrency).
 */
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string
Quote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
Number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[noreturn]] void
Usage(const std::string& why)
{
    std::fprintf(stderr,
                 "sinan_perfbench: %s\nusage: sinan_perfbench --workload "
                 "solo-social|fleet-mixed|train-social --seed N "
                 "--seconds S [--threads N] [--trace 0|1] "
                 "[--models DIR] [--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::LegConfig cfg;
    cfg.process_start_ns = perfbench::NowNs();
    int threads = 0;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            Usage("missing value for " + flag);
        const std::string val = argv[++i];
        try {
            if (flag == "--workload") {
                cfg.workload = val;
                have_workload = true;
            } else if (flag == "--seed") {
                cfg.seed = std::stoull(val);
            } else if (flag == "--seconds") {
                cfg.seconds = std::stod(val);
            } else if (flag == "--threads") {
                threads = std::stoi(val);
            } else if (flag == "--trace") {
                cfg.trace = val == "1";
            } else if (flag == "--models") {
                cfg.models_dir = val;
            } else if (flag == "--spans") {
                cfg.spans_path = val;
            } else {
                Usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            Usage("bad value for " + flag + ": " + val);
        }
    }
    if (!have_workload)
        Usage("--workload is required");
    if (threads < 0 || threads > 256)
        Usage("--threads must be in [0, 256]");
    if (threads > 0)
        sinan::SetNumThreads(threads);

    perfbench::LegResult r;
    try {
        r = perfbench::RunLeg(cfg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sinan_perfbench: %s\n", e.what());
        return 1;
    }

    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"fingerprint\": {\"cores\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"threads\": " + std::to_string(sinan::NumThreads()) +
            ", \"kernel_id\": " + Quote(sinan::ActiveKernelId()) +
            ", \"int8_kernel_id\": " + Quote(sinan::ActiveInt8KernelId()) +
            ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
            ", \"seed\": " + std::to_string(cfg.seed) +
            ", \"train_seeds\": [";
    for (size_t i = 0; i < r.train_seeds.size(); ++i)
        json += (i ? ", " : "") + std::to_string(r.train_seeds[i]);
    json += "]}, \"failures\": [";
    for (size_t i = 0; i < r.failures.size(); ++i)
        json += (i ? ", " : "") + Quote(r.failures[i]);
    json += "], \"notes\": [";
    for (size_t i = 0; i < r.notes.size(); ++i)
        json += (i ? ", " : "") + Quote(r.notes[i]);
    json += "], \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const perfbench::Metric& m = r.metrics[i];
        json += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " +
                Number(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
