#include "instrument.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>


namespace perfbench {

using namespace sinan;

std::vector<Prediction>
TimedModel::Evaluate(const MetricWindow& window,
                     const std::vector<std::vector<double>>& allocations)
{
    if (rec_ == nullptr)
        return EvaluateTimed(window, allocations, nullptr);
    ScopedSpan span(rec_, SpanName::kEvaluate);
    EvalStageTimes st;
    std::vector<Prediction> out = EvaluateTimed(window, allocations, &st);
    ++stages_.calls;
    stages_.candidates += static_cast<int64_t>(allocations.size());
    stages_.feature_s += st.feature_build_s;
    stages_.trunk_s += st.trunk_s;
    stages_.head_s += st.head_s;
    stages_.bt_s += st.bt_s;
    return out;
}

FeatureConfig
FeaturesFor(const Application& app)
{
    // PipelineConfig's defaults, as in TrainSinanForApp.
    const PipelineConfig p;
    FeatureConfig f;
    f.n_tiers = static_cast<int>(app.tiers.size());
    f.history = p.history;
    f.violation_lookahead = p.violation_lookahead;
    f.qos_ms = app.qos_ms;
    return f;
}

std::unique_ptr<TimedModel>
LoadModel(const Application& app, const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open model " + path);
    auto model = std::make_unique<TimedModel>(
        FeaturesFor(app), DefaultHybridConfig(), 42 ^ 0xcafe);
    model->Load(in);
    return model;
}

bool
AllocationValid(const std::vector<double>& alloc, const Application& app)
{
    if (alloc.size() != app.tiers.size())
        return false;
    for (size_t i = 0; i < alloc.size(); ++i) {
        if (!std::isfinite(alloc[i]) ||
            alloc[i] < app.tiers[i].min_cpu - 1e-9 ||
            alloc[i] > app.tiers[i].max_cpu + 1e-9)
            return false;
    }
    return true;
}

std::vector<double>
TimedManager::Decide(const IntervalObservation& obs,
                     const std::vector<double>& alloc,
                     const Application& app)
{
    ++decisions_;
    std::vector<double> out;
    std::string failure;
    const int64_t t0 = NowNs();
    {
        ScopedSpan span(rec_, SpanName::kDecide);
        try {
            out = inner_.Decide(obs, alloc, app);
        } catch (const std::exception& e) {
            failure = std::string("Decide threw: ") + e.what();
        }
    }
    const int64_t t1 = NowNs();
    if (decide_ms_)
        decide_ms_->push_back(1e3 * SecondsBetween(t0, t1));
    if (failure.empty() && !AllocationValid(out, app))
        failure = "Decide returned a non-finite or out-of-bounds "
                  "allocation";
    if (!failure.empty()) {
        ++failed_;
        if (first_failure_.empty())
            first_failure_ = failure;
        return alloc;
    }
    return out;
}

double
StepToEnd(ManagedRun& run, SpanRecorder* rec, std::vector<double>* interval_s)
{
    const int64_t t0 = NowNs();
    int64_t last = t0;
    while (!run.Done()) {
        {
            ScopedSpan span(rec, SpanName::kSimStep);
            run.AdvanceInterval();
        }
        {
            ScopedSpan span(rec, SpanName::kDecideApply);
            run.DecideAndApply();
        }
        if (interval_s) {
            const int64_t now = NowNs();
            interval_s->push_back(SecondsBetween(last, now));
            last = now;
        }
    }
    return SecondsBetween(t0, NowNs());
}

double
ModelChosenRatio(const TelemetrySummary& t)
{
    const uint64_t post = t.decisions - t.warmup;
    return post ? static_cast<double>(t.model_decisions) /
                      static_cast<double>(post)
                : 0.0;
}

RunCheck
CheckManagedRun(const RunResult& r, const Application& app,
                double warmup_s, const std::string& label,
                std::vector<std::string>* failures)
{
    RunCheck c;
    auto fail = [&](const std::string& what) {
        failures->push_back(label + ": " + what);
    };
    int64_t measured = 0;
    double cpu = 0.0, max_total = 0.0;
    for (const TierSpec& t : app.tiers)
        max_total += t.max_cpu;
    bool alloc_ok = true;
    for (const IntervalRecord& rec : r.timeline) {
        alloc_ok = alloc_ok && AllocationValid(rec.alloc, app);
        if (rec.time_s <= warmup_s)
            continue;
        ++measured;
        if (rec.p99_ms <= app.qos_ms)
            ++c.qos_met_intervals;
        cpu += rec.total_cpu;
    }
    c.cpu_cores_mean = measured ? cpu / static_cast<double>(measured) : 0.0;
    c.telemetry = SummarizeTelemetry(r.metrics);
    if (measured == 0)
        fail("no post-warmup intervals");
    const double meet =
        measured ? static_cast<double>(c.qos_met_intervals) /
                       static_cast<double>(measured)
                 : 0.0;
    if (meet != r.qos_meet_prob)
        fail("qos_met_intervals recomputed from the timeline disagrees "
             "with RunResult::qos_meet_prob");
    if (std::fabs(c.cpu_cores_mean - r.mean_cpu) >
        1e-9 * std::max(1.0, r.mean_cpu))
        fail("cpu_cores_mean recomputed from the timeline disagrees "
             "with RunResult::mean_cpu");
    if (!alloc_ok)
        fail("an applied allocation is non-finite or outside its tier's "
             "bounds");
    if (!(ModelChosenRatio(c.telemetry) > 0.5))
        fail("model-chosen decisions are not a majority of post-warmup "
             "decisions (" +
             std::to_string(c.telemetry.model_decisions) + " of " +
             std::to_string(c.telemetry.decisions - c.telemetry.warmup) +
             ")");
    if (!(c.cpu_cores_mean < max_total))
        fail("mean CPU is not below the all-tiers-at-max allocation");
    return c;
}

bool
SameTimeline(const RunResult& a, const RunResult& b)
{
    if (a.timeline.size() != b.timeline.size())
        return false;
    auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    for (size_t i = 0; i < a.timeline.size(); ++i) {
        const IntervalRecord& x = a.timeline[i];
        const IntervalRecord& y = b.timeline[i];
        if (!same(x.time_s, y.time_s) || !same(x.rps, y.rps) ||
            !same(x.p99_ms, y.p99_ms) || !same(x.total_cpu, y.total_cpu) ||
            !same(x.predicted_p99_ms, y.predicted_p99_ms) ||
            !same(x.predicted_violation, y.predicted_violation) ||
            x.alloc.size() != y.alloc.size())
            return false;
        for (size_t j = 0; j < x.alloc.size(); ++j)
            if (!same(x.alloc[j], y.alloc[j]))
                return false;
    }
    return true;
}

TrainFigures
TrainAndCalibrate(HybridModel& model, const Dataset& train,
                  const Dataset& valid, SpanRecorder* rec,
                  HybridReport* report)
{
    const int64_t t0 = NowNs();
    HybridReport rep;
    {
        ScopedSpan span(rec, SpanName::kTrain);
        rep = model.Train(train, valid);
    }
    const int64_t t1 = NowNs();
    {
        ScopedSpan span(rec, SpanName::kCalibrate);
        model.CalibrateInt8(train);
    }
    const int64_t t2 = NowNs();
    TrainFigures f;
    f.train_s = SecondsBetween(t0, t1);
    f.sample_epochs =
        static_cast<double>(train.samples.size()) * rep.cnn.epochs_run;
    f.calibrate_s = SecondsBetween(t1, t2);
    f.cnn_train_s = rep.cnn.train_time_s;
    f.ms_per_batch = rep.cnn.train_ms_per_batch;
    f.bt_fit_s = rep.bt_train_time_s;
    f.bt_trees = rep.bt_trees;
    f.cnn_val_rmse_ms = rep.cnn.val_rmse_ms;
    f.bt_val_accuracy = rep.bt_val_accuracy;
    if (report)
        *report = rep;
    return f;
}

double
Mean(const std::vector<double>& v)
{
    double acc = 0.0;
    for (double x : v)
        acc += x;
    return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
}

double
Median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
Percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
PeakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
