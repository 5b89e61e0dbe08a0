/**
 * @file
 * Golden-file pin of the simulator's output bytes. The determinism
 * tests elsewhere compare two runs of the same build; this one compares
 * against a committed file, so any change to Cluster::Tick and the
 * stage machinery that moves a single bit of a Harvest or a trace span
 * shows up as a reviewed diff instead of passing silently.
 *
 * Each row is one decision interval: rps, completed_rps and the latency
 * quantiles as hex floats, plus a 64-bit FNV-1a hash over the bit
 * patterns of every TierMetrics field and over every span that
 * TakeTraces() returned in the interval. Two scenarios, 60 intervals
 * each:
 *   - Social Network at 250 users with the Redis log sync on (period
 *     shortened to 20 s so three syncs land in the run), 10% trace
 *     sampling, micro-bursts, a stall and a capacity-loss fault, and a
 *     stepped allocation;
 *   - Hotel Reservation at 2000 users with micro-bursts and the same
 *     stepped allocation.
 * Regenerate after an intentional change to the simulator with:
 *   SINAN_REGEN_GOLDEN=1 ./tests/sim_golden_test
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "app/apps.h"
#include "cluster/cluster.h"
#include "harness/harness.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace sinan {
namespace {

constexpr int kIntervals = 60;

std::string
GoldenPath(const char* name)
{
    return std::string(SINAN_REPO_ROOT) + "/tests/golden/" + name;
}

std::string
ReadFileOrEmpty(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** 64-bit FNV-1a over raw bytes. */
class Fnv64 {
  public:
    template <typename T>
    void
    Add(const T& v)
    {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
    }
    uint64_t Value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
Hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

struct Scenario {
    const char* name;
    Application app;
    double users;
    /** Allocation as a fraction of each tier's max_cpu. */
    double cpu_fraction;
    ClusterConfig cluster;
    std::string faults;
};

/** Steps the scenario interval by interval and renders one row each. */
std::string
RenderScenario(const Scenario& sc, uint64_t seed)
{
    RunConfig defaults;
    SimConfig sim_cfg;
    Simulator sim(sim_cfg);
    Cluster cluster(sc.app, sc.cluster, seed);
    ConstantLoad load(sc.users);
    WorkloadGenerator gen(cluster, load, seed ^ 0xfeed, 1.0,
                          defaults.bursts);
    FaultSchedule schedule;
    if (!sc.faults.empty())
        schedule = ParseFaultSpec(sc.faults);
    FaultInjector injector(schedule, sim_cfg.interval_s);
    sim.AddTickable([&](double now, double dt) { gen.Tick(now, dt); });
    sim.AddTickable(
        [&](double now, double dt) { cluster.Tick(now, dt); });

    std::vector<double> base;
    for (const TierSpec& t : sc.app.tiers)
        base.push_back(sc.cpu_fraction * t.max_cpu);

    std::ostringstream out;
    for (int i = 0; i < kIntervals; ++i) {
        // Stepped allocation: the scenario's share of each tier's
        // maximum, then 0.7x of that, alternating every 10 intervals.
        std::vector<double> alloc = base;
        if ((i / 10) % 2 == 1)
            for (double& c : alloc)
                c *= 0.7;
        cluster.SetAllocation(alloc);
        injector.ApplyClusterFaults(i, sim.Now(), cluster);

        sim.RunFor(sim_cfg.interval_s);
        const IntervalObservation obs =
            cluster.Harvest(sim.Now(), sim_cfg.interval_s);

        Fnv64 tiers;
        for (const TierMetrics& m : obs.tiers) {
            tiers.Add(m.cpu_limit);
            tiers.Add(m.cpu_used);
            tiers.Add(m.rss_mb);
            tiers.Add(m.cache_mb);
            tiers.Add(m.rx_pps);
            tiers.Add(m.tx_pps);
            tiers.Add(m.queue_len);
            tiers.Add(m.active);
            tiers.Add(m.queue_wait_s);
        }
        Fnv64 spans;
        const std::vector<Trace> traces = cluster.TakeTraces();
        for (const Trace& t : traces) {
            spans.Add(t.trace_id);
            spans.Add(t.request_type);
            spans.Add(t.begin_s);
            spans.Add(t.end_s);
            for (const Span& s : t.spans) {
                spans.Add(s.tier);
                spans.Add(s.span_id);
                spans.Add(s.parent_span);
                spans.Add(s.async);
                spans.Add(s.enqueue_s);
                spans.Add(s.start_s);
                spans.Add(s.end_s);
            }
        }

        char hashes[64];
        std::snprintf(hashes, sizeof(hashes), "%016llx %016llx",
                      static_cast<unsigned long long>(tiers.Value()),
                      static_cast<unsigned long long>(spans.Value()));
        out << sc.name << ' ' << i << ' ' << Hex(obs.rps) << ' '
            << Hex(obs.completed_rps);
        for (double q : obs.latency_ms)
            out << ' ' << Hex(q);
        out << ' ' << traces.size() << ' ' << hashes << '\n';
    }
    return out.str();
}

std::string
RenderAll()
{
    std::string out =
        "# scenario interval rps completed_rps p95 p96 p97 p98 p99 "
        "traces tier_metrics_fnv64 spans_fnv64\n";

    SocialOptions so;
    so.redis_log_sync = true;
    Scenario social{"social", BuildSocialNetwork(so), 250.0, 0.5, {},
                    ""};
    for (TierSpec& t : social.app.tiers)
        if (t.log_sync)
            t.log_sync_period_s = 20.0;
    social.cluster.trace_sample = 0.1;
    social.faults = "stall@12+2:tier=1;caploss@25+15:tiers=4-6,mag=0.6";
    out += RenderScenario(social, 7);

    Scenario hotel{"hotel", BuildHotelReservation(), 2000.0, 0.25, {}, ""};
    out += RenderScenario(hotel, 11);
    return out;
}

TEST(SimGolden, HarvestAndTraceBytesAreStable)
{
    const std::string rendered = RenderAll();
    const std::string path = GoldenPath("sim_intervals.txt");
    if (std::getenv("SINAN_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string golden = ReadFileOrEmpty(path);
    ASSERT_FALSE(golden.empty())
        << path << " missing; regenerate with SINAN_REGEN_GOLDEN=1";
    EXPECT_EQ(rendered, golden)
        << "the simulator's output drifted from " << path
        << ". If the change is intentional, rerun with "
           "SINAN_REGEN_GOLDEN=1 and commit the diff.";
}

} // namespace
} // namespace sinan
