/**
 * @file
 * The benchmark's clock and in-memory span recorder.
 *
 * Every clock read of the benchmark goes through NowNs() (steady
 * clock). A traced leg records one span around each call it makes into
 * a layer of the program: name, start, end and the enclosing span.
 * Spans stay in memory until the leg ends; Aggregate() derives each
 * name's count, total time and self time (its duration minus the part
 * its child spans cover), and WriteTsv() dumps the raw spans.
 *
 * The recorder is single-threaded: every span is opened and closed on
 * the thread that drives the workload (the program's own worker
 * threads run inside the spanned calls).
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock (arbitrary epoch). */
int64_t NowNs();

/** Seconds between two NowNs() readings. */
inline double
SecondsBetween(int64_t start_ns, int64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** The calls the benchmark wraps in spans. */
enum class SpanName {
    kRound,          ///< one whole round of a workload
    kSimStep,        ///< ManagedRun::AdvanceInterval
    kDecideApply,    ///< ManagedRun::DecideAndApply
    kDecide,         ///< ResourceManager::Decide (forwarding wrapper)
    kEvaluate,       ///< HybridModel::Evaluate (EvaluateTimed subclass)
    kFleetRun,       ///< FleetManager::Run (the body of RunFleet)
    kCollect,        ///< Collect
    kTrain,          ///< HybridModel::Train
    kCalibrate,      ///< HybridModel::CalibrateInt8
    kCount
};

const char* ToString(SpanName name);

/** One recorded span; parent is an index into the span list or -1. */
struct Span {
    SpanName name = SpanName::kRound;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
};

/** Per-name aggregate derived from the spans. */
struct SpanStats {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;

    double MeanMs() const
    {
        return count ? 1e3 * total_s / static_cast<double>(count) : 0.0;
    }
    double MeanSelfMs() const
    {
        return count ? 1e3 * self_s / static_cast<double>(count) : 0.0;
    }
};

class SpanRecorder {
  public:
    /** Opens a span under the innermost open one; returns its id. */
    int Begin(SpanName name);

    /** Closes the span Begin() returned. */
    void End(int id);

    /** Count, total and self time per span name. */
    std::map<SpanName, SpanStats> Aggregate() const;

    /** Writes one line per span: id, name, parent, start_ns, end_ns. */
    void WriteTsv(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null recorder (an untraced leg) records nothing. */
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder* rec, SpanName name)
        : rec_(rec), id_(rec ? rec->Begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->End(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* rec_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
