/**
 * @file
 * Outside-in instrumentation of the program's public layers: a
 * HybridModel subclass whose Evaluate goes through EvaluateTimed, a
 * forwarding ResourceManager that times and validates every Decide, a
 * stepper that spans ManagedRun's two phases, and the shared checks
 * and helpers the three workloads use.
 */
#ifndef PERFBENCH_INSTRUMENT_H
#define PERFBENCH_INSTRUMENT_H

#include <memory>
#include <string>
#include <vector>

#include "core/manager.h"
#include "harness/harness.h"
#include "harness/telemetry_log.h"
#include "models/hybrid.h"
#include "spans.h"

namespace perfbench {

/** HybridModel whose Evaluate is spanned and stage-timed when traced. */
class TimedModel : public sinan::HybridModel {
  public:
    TimedModel(const sinan::FeatureConfig& fcfg,
               const sinan::HybridConfig& cfg, uint64_t seed)
        : HybridModel(fcfg, cfg, seed)
    {
    }

    /** Stage totals over every traced Evaluate call. */
    struct Stages {
        int64_t calls = 0;
        int64_t candidates = 0;
        double feature_s = 0.0;
        double trunk_s = 0.0;
        double head_s = 0.0;
        double bt_s = 0.0;
    };

    /** Null (the default) evaluates untraced via the plain path. */
    void SetRecorder(SpanRecorder* rec) { rec_ = rec; }

    const Stages& StageTotals() const { return stages_; }

    std::vector<sinan::Prediction>
    Evaluate(const sinan::MetricWindow& window,
             const std::vector<std::vector<double>>& allocations) override;

  private:
    SpanRecorder* rec_ = nullptr;
    Stages stages_;
};

/** The features every bundled model was trained with. */
sinan::FeatureConfig FeaturesFor(const sinan::Application& app);

/** Loads a committed model file into a TimedModel (throws if absent). */
std::unique_ptr<TimedModel> LoadModel(const sinan::Application& app,
                                      const std::string& path);

/** True iff @p alloc has one finite value per tier inside its spec
 *  bounds. */
bool AllocationValid(const std::vector<double>& alloc,
                     const sinan::Application& app);

/**
 * Forwards every call to the wrapped manager. Decide is timed (one
 * clock pair, always), spanned when traced, and validated: a throw or
 * a non-finite / out-of-bounds allocation counts as a failed decision
 * and the allocation in force is held instead.
 */
class TimedManager : public sinan::ResourceManager {
  public:
    TimedManager(sinan::ResourceManager& inner, SpanRecorder* rec,
                 std::vector<double>* decide_ms)
        : inner_(inner), rec_(rec), decide_ms_(decide_ms)
    {
    }

    std::vector<double> Decide(const sinan::IntervalObservation& obs,
                               const std::vector<double>& alloc,
                               const sinan::Application& app) override;

    const char* Name() const override { return inner_.Name(); }
    void Reset() override { inner_.Reset(); }
    double LastPredictedP99() const override
    {
        return inner_.LastPredictedP99();
    }
    double LastViolationProb() const override
    {
        return inner_.LastViolationProb();
    }
    void AttachTelemetry(sinan::DecisionTrace* trace,
                         sinan::MetricsRegistry* metrics) override
    {
        inner_.AttachTelemetry(trace, metrics);
    }

    int64_t Decisions() const { return decisions_; }
    int64_t Failed() const { return failed_; }
    /** First failure message (empty when none failed). */
    const std::string& FirstFailure() const { return first_failure_; }

  private:
    sinan::ResourceManager& inner_;
    SpanRecorder* rec_;
    std::vector<double>* decide_ms_;
    int64_t decisions_ = 0;
    int64_t failed_ = 0;
    std::string first_failure_;
};

/** Steps @p run to its end, spanning both phases of every interval;
 *  returns the host seconds of the loop. With @p interval_s, appends
 *  the host seconds of every interval. */
double StepToEnd(sinan::ManagedRun& run, SpanRecorder* rec,
                 std::vector<double>* interval_s = nullptr);

/**
 * Checks one finished managed run against properties the method must
 * have, recomputed independently of RunResult's own aggregation:
 * qos_met and mean CPU from the timeline and the app's QoS match
 * qos_meet_prob and mean_cpu; every applied allocation is finite and
 * in bounds; model-chosen decisions are a majority of post-warmup
 * decisions; mean CPU is below the all-tiers-at-max allocation.
 * Appends a message per failed property to @p failures.
 */
struct RunCheck {
    int64_t qos_met_intervals = 0;
    double cpu_cores_mean = 0.0;
    sinan::TelemetrySummary telemetry;
};
RunCheck CheckManagedRun(const sinan::RunResult& r,
                         const sinan::Application& app, double warmup_s,
                         const std::string& label,
                         std::vector<std::string>* failures);

/** Model-chosen decisions over post-warmup decisions. */
double ModelChosenRatio(const sinan::TelemetrySummary& t);

/** True iff both timelines hold bit-identical records. */
bool SameTimeline(const sinan::RunResult& a, const sinan::RunResult& b);

/** Training-side figures of one Train + CalibrateInt8. */
struct TrainFigures {
    double train_s = 0.0;       // host seconds of the Train call
    double sample_epochs = 0.0; // training samples x epochs run
    double cnn_train_s = 0.0;
    double ms_per_batch = 0.0;
    double bt_fit_s = 0.0;
    double bt_trees = 0.0;
    double calibrate_s = 0.0;
    double cnn_val_rmse_ms = 0.0;
    double bt_val_accuracy = 0.0;
};

/**
 * Trains @p model and then runs CalibrateInt8, each in a span. Fills
 * @p report when non-null.
 */
TrainFigures TrainAndCalibrate(sinan::HybridModel& model,
                               const sinan::Dataset& train,
                               const sinan::Dataset& valid,
                               SpanRecorder* rec,
                               sinan::HybridReport* report);

/** Mean (0 for an empty list). */
double Mean(const std::vector<double>& v);

/** Median (0 for an empty list). */
double Median(std::vector<double> v);

/** Nearest-rank percentile q in (0, 100]. */
double Percentile(std::vector<double> v, double q);

/** Peak resident set of this process, MB. */
double PeakRssMb();

} // namespace perfbench

#endif // PERFBENCH_INSTRUMENT_H
