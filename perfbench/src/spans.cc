#include "spans.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char*
ToString(SpanName name)
{
    switch (name) {
    case SpanName::kRound: return "round";
    case SpanName::kSimStep: return "sim.step";
    case SpanName::kDecideApply: return "harness.decide_apply";
    case SpanName::kDecide: return "core.decide";
    case SpanName::kEvaluate: return "models.evaluate";
    case SpanName::kFleetRun: return "fleet.run";
    case SpanName::kCollect: return "collect";
    case SpanName::kTrain: return "models.train";
    case SpanName::kCalibrate: return "models.calibrate";
    case SpanName::kCount: break;
    }
    return "?";
}

int
SpanRecorder::Begin(SpanName name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::End(int id)
{
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("SpanRecorder: spans closed out of order");
    open_.pop_back();
}

std::map<SpanName, SpanStats>
SpanRecorder::Aggregate() const
{
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            child_s[static_cast<size_t>(s.parent)] +=
                SecondsBetween(s.start_ns, s.end_ns);
    }
    std::map<SpanName, SpanStats> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        SpanStats& st = out[s.name];
        const double dur = SecondsBetween(s.start_ns, s.end_ns);
        ++st.count;
        st.total_s += dur;
        st.self_s += dur - child_s[i];
    }
    return out;
}

void
SpanRecorder::WriteTsv(const std::string& path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
    out << "id\tname\tparent\tstart_ns\tend_ns\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << i << '\t' << ToString(s.name) << '\t' << s.parent << '\t'
            << s.start_ns << '\t' << s.end_ns << '\n';
    }
}

} // namespace perfbench
