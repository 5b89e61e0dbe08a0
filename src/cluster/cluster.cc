#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace sinan {

namespace {

/** Progress below this is treated as zero to terminate sharing rounds. */
constexpr double kEpsWork = 1e-12;

/** Upper bound on sharing rounds per tier per tick (safety net). */
constexpr int kMaxRounds = 64;

} // namespace

Cluster::Cluster(const Application& app, const ClusterConfig& cfg,
                 uint64_t seed)
    : app_(app), cfg_(cfg), rng_(seed)
{
    if (app.tiers.empty())
        throw std::invalid_argument("Cluster: application has no tiers");
    if (app.request_types.empty())
        throw std::invalid_argument("Cluster: application has no requests");
    if (cfg.replica_scale < 1)
        throw std::invalid_argument("Cluster: replica_scale must be >= 1");

    tiers_.resize(app.tiers.size());
    for (size_t i = 0; i < app.tiers.size(); ++i) {
        TierState& t = tiers_[i];
        t.spec = app.tiers[i];
        t.cpu_limit = t.spec.init_cpu;
        t.slots = t.spec.concurrency_per_replica * t.spec.replicas *
                  cfg.replica_scale;
        t.cache_mb = t.spec.base_cache_mb;
        t.next_sync_at = t.spec.log_sync_period_s;
    }

    roots_.reserve(app.request_types.size());
    for (const RequestType& rt : app.request_types)
        roots_.push_back(FlattenTree(rt.root, -1));
}

void
StageQueue::Grow()
{
    std::vector<int32_t> grown(buf_.empty() ? 16 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i)
        grown[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_.swap(grown);
    head_ = 0;
}

int32_t
Cluster::FlattenTree(const CallNode& node, int parent_tier)
{
    if (node.tier < 0 || node.tier >= static_cast<int>(tiers_.size()))
        throw std::invalid_argument("Cluster: call node has bad tier index");
    const int32_t idx = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(FlatNode{node.tier, parent_tier,
                              Rng::FitLogNormal(node.demand_s,
                                                node.demand_cv),
                              node.hit_prob, node.async, idx + 1,
                              static_cast<int32_t>(node.children.size()),
                              0});
    // Depth-first layout: a node's first child is at idx+1 and sibling
    // k+1 starts where sibling k's subtree ends, so FinishLocalWork
    // enumerates children by hopping subtree_end.
    for (const CallNode& c : node.children)
        FlattenTree(c, node.tier);
    nodes_[idx].subtree_end = static_cast<int32_t>(nodes_.size());
    return idx;
}

int32_t
Cluster::AllocStage()
{
    if (!free_stages_.empty()) {
        const int32_t h = free_stages_.back();
        free_stages_.pop_back();
        return h;
    }
    stages_.emplace_back();
    return static_cast<int32_t>(stages_.size()) - 1;
}

void
Cluster::FreeStage(int32_t handle)
{
    stages_[handle].state = 0;
    free_stages_.push_back(handle);
}

int32_t
Cluster::SpawnStage(int32_t node, int32_t parent, bool record_latency,
                    double now, double birth)
{
    const FlatNode& fn = nodes_[node];
    const int32_t h = AllocStage();
    Stage& s = stages_[h];
    s.remaining_s = rng_.LogNormal(fn.demand);
    s.consumed_tick_s = 0.0;
    s.enqueue_time = now;
    s.birth_time = birth;
    s.ready_tick = in_tick_ ? tick_id_ + 1 : tick_id_;
    s.node = node;
    s.parent = parent;
    s.pending_children = 0;
    s.trace_idx = -1;
    s.span_idx = -1;
    s.state = 1; // queued
    s.record_latency = record_latency;

    TierState& tier = tiers_[fn.tier];
    tier.queue.push_back(h);
    tier.rx_pkts += tier.spec.pkts_per_rpc;
    if (parent >= 0) {
        TierState& caller = tiers_[fn.parent_tier];
        caller.tx_pkts += caller.spec.pkts_per_rpc;
    }
    return h;
}

void
Cluster::Inject(int request_type, double now)
{
    if (request_type < 0 ||
        request_type >= static_cast<int>(roots_.size())) {
        throw std::out_of_range("Cluster::Inject: bad request type");
    }
    const int32_t h = SpawnStage(roots_[request_type], -1, true, now, now);
    ++injected_;
    ++in_flight_;

    if (cfg_.trace_sample > 0.0 && rng_.Bernoulli(cfg_.trace_sample)) {
        int32_t idx;
        if (!trace_free_.empty()) {
            idx = trace_free_.back();
            trace_free_.pop_back();
            active_traces_[idx] = Trace{};
            trace_open_spans_[idx] = 0;
        } else {
            idx = static_cast<int32_t>(active_traces_.size());
            active_traces_.emplace_back();
            trace_open_spans_.push_back(0);
        }
        Trace& trace = active_traces_[idx];
        trace.trace_id = ++trace_counter_;
        trace.request_type = request_type;
        trace.begin_s = now;
        AttachSpan(h, idx, -1, false, now);
    }
}

void
Cluster::AttachSpan(int32_t handle, int32_t trace_idx, int parent_span,
                    bool async, double now)
{
    Stage& s = stages_[handle];
    Trace& trace = active_traces_[trace_idx];
    Span span;
    span.tier = nodes_[s.node].tier;
    span.span_id = static_cast<int>(trace.spans.size());
    span.parent_span = parent_span;
    span.async = async;
    span.enqueue_s = now;
    span.start_s = now;
    span.end_s = now;
    s.trace_idx = trace_idx;
    s.span_idx = span.span_id;
    trace.spans.push_back(span);
    ++trace_open_spans_[trace_idx];
}

void
Cluster::CloseSpan(const Stage& s, double end_time)
{
    Trace& trace = active_traces_[s.trace_idx];
    Span& span = trace.spans[s.span_idx];
    span.end_s = end_time;
    if (s.record_latency)
        trace.end_s = end_time;
    if (--trace_open_spans_[s.trace_idx] == 0) {
        completed_traces_.push_back(std::move(trace));
        trace_free_.push_back(s.trace_idx);
    }
}

std::vector<Trace>
Cluster::TakeTraces()
{
    std::vector<Trace> out;
    out.swap(completed_traces_);
    return out;
}

void
Cluster::AdmitFromQueue(TierState& tier, double now)
{
    while (tier.active < tier.slots && !tier.queue.empty()) {
        const int32_t h = tier.queue.front();
        tier.queue.pop_front();
        Stage& s = stages_[h];
        s.state = 2; // running
        // Children spawned mid-tick carry the tick-end timestamp while
        // admission runs at tick start, so the difference is clamped.
        tier.wait_acc += std::max(0.0, now - s.enqueue_time);
        ++tier.wait_count;
        ++tier.active;
        // A stage without work (a zero-demand node) holds its slot but
        // can never become runnable, so it stays off the running list:
        // every stage on it is runnable at the start of a tick.
        if (s.remaining_s > kEpsWork) {
            tier.running.push_back(h);
            // Fresh: work left and nothing consumed in this tick.
            if (s.ready_tick <= tick_id_)
                runnable_.push_back(h);
        }
        if (s.trace_idx >= 0) {
            Span& span =
                active_traces_[s.trace_idx].spans[s.span_idx];
            span.start_s = std::max(now, span.enqueue_s);
        }
    }
}

void
Cluster::FinishLocalWork(int32_t handle, double end_time)
{
    // Copy what we need up front: SpawnStage can grow the stage arena and
    // invalidate references into it.
    const Stage& st = stages_[handle];
    const FlatNode& fn = nodes_[st.node];
    const double birth = st.birth_time;
    const int32_t parent_trace = st.trace_idx;
    const int32_t parent_span = st.span_idx;

    const bool invoke_children =
        fn.child_count > 0 && !rng_.Bernoulli(fn.hit_prob);

    if (!invoke_children) {
        CompleteStage(handle, end_time);
        return;
    }

    // Spawn all children in parallel.
    int32_t child = fn.child_begin;
    int sync_children = 0;
    for (int k = 0; k < fn.child_count; ++k) {
        const FlatNode& cn = nodes_[child];
        const int32_t ch = SpawnStage(child, cn.async ? -1 : handle,
                                      false, end_time, birth);
        if (parent_trace >= 0)
            AttachSpan(ch, parent_trace, parent_span, cn.async, end_time);
        if (!cn.async)
            ++sync_children;
        child = cn.subtree_end;
    }

    if (sync_children == 0) {
        CompleteStage(handle, end_time);
    } else {
        Stage& s = stages_[handle];
        s.pending_children = sync_children;
        s.state = 3; // blocked, still holding its slot
    }
}

void
Cluster::CompleteStage(int32_t handle, double end_time)
{
    for (;;) {
        const Stage& s = stages_[handle];
        const FlatNode& fn = nodes_[s.node];
        TierState& tier = tiers_[fn.tier];

        --tier.active;
        tier.tx_pkts += tier.spec.pkts_per_rpc;
        tier.written_mb += tier.spec.written_mb_per_req;
        tier.cache_mb = std::min(tier.spec.max_cache_mb,
                                 tier.cache_mb + tier.spec.cache_per_req_mb);
        const int32_t parent = s.parent;
        if (parent >= 0) {
            TierState& caller = tiers_[fn.parent_tier];
            caller.rx_pkts += caller.spec.pkts_per_rpc;
        }

        if (s.record_latency) {
            latency_.Add((end_time - s.birth_time) * 1000.0);
            ++completed_;
            --in_flight_;
        }
        if (s.trace_idx >= 0)
            CloseSpan(s, end_time);
        FreeStage(handle);

        if (parent < 0)
            return;
        Stage& p = stages_[parent];
        if (--p.pending_children != 0 || p.state != 3)
            return;
        handle = parent;
    }
}

void
Cluster::ServeTier(TierState& tier, double now, double dt,
                   double end_time)
{
    // Fraction of this tick the tier is able to run.
    double avail = 1.0;
    if (tier.stall_until > now)
        avail = std::max(0.0, (end_time - tier.stall_until) / dt);

    // A stage admitted before this tick is runnable in the first
    // round: it has work left (see AdmitFromQueue) and is ready, since
    // its spawn tick is over; AdmitFromQueue appends the ready ones
    // admitted now. A later round's runnable set is the previous one
    // minus the stages that finished or hit the per-stage cap (nothing
    // else changes eligibility within a tick), plus the ready stages
    // admitted after the round, so it is kept incrementally, in
    // running-list order, without rescanning the running list.
    std::vector<int32_t>& run = tier.running;
    runnable_.assign(run.begin(), run.end());
    if (!tier.queue.empty())
        AdmitFromQueue(tier, now);

    double cap_s = tier.cpu_limit * cfg_.speed_factor *
                   tier.capacity_factor * dt * avail;
    const double per_stage_cap = dt * avail; // one core per stage
    if (cap_s <= kEpsWork || !(0.0 < per_stage_cap - kEpsWork))
        return; // no round could give anything

    for (int round = 0;
         round < kMaxRounds && cap_s > kEpsWork && !runnable_.empty();
         ++round) {
        const double share = cap_s / static_cast<double>(runnable_.size());
        bool progressed = false;
        size_t kept = 0;
        finished_.clear();
        for (size_t i = 0; i < runnable_.size(); ++i) {
            const int32_t h = runnable_[i];
            Stage& s = stages_[h];
            if (round == 0)
                s.consumed_tick_s = 0.0; // the tick's first look
            const double give = std::min(
                {share, s.remaining_s, per_stage_cap - s.consumed_tick_s});
            if (give <= kEpsWork) {
                runnable_[kept++] = h;
                continue;
            }
            s.remaining_s -= give;
            s.consumed_tick_s += give;
            cap_s -= give;
            tier.cpu_used_acc += give;
            progressed = true;
            if (s.remaining_s <= kEpsWork) {
                s.remaining_s = 0.0;
                finished_.push_back(h);
            } else if (s.consumed_tick_s < per_stage_cap - kEpsWork) {
                runnable_[kept++] = h;
            }
        }
        if (!progressed)
            break;
        runnable_.erase(runnable_.begin() + static_cast<std::ptrdiff_t>(kept),
                        runnable_.end());
        // Fan-out and completion touch no stage still in the round (only
        // the finished stage, its new children and its blocked
        // ancestors) and none of the round's inputs, so they run after
        // the gives, in the same order.
        for (const int32_t h : finished_)
            FinishLocalWork(h, end_time);

        // Drop the finished stages from the running list in one stable
        // pass: they are a subsequence of it in the same order.
        if (finished_.size() == run.size()) {
            run.clear();
        } else if (!finished_.empty()) {
            size_t w = 0, f = 0;
            for (const int32_t h : run) {
                if (f < finished_.size() && h == finished_[f])
                    ++f;
                else
                    run[w++] = h;
            }
            run.erase(run.begin() + static_cast<std::ptrdiff_t>(w),
                      run.end());
        }

        if (!tier.queue.empty())
            AdmitFromQueue(tier, now);
    }
}

void
Cluster::Tick(double now, double dt)
{
    in_tick_ = true;
    const double end_time = now + dt;
    for (TierState& tier : tiers_) {
        // Log-sync stall model: at each period boundary the tier forks and
        // copies dirty memory, serving nothing while it does.
        if (tier.spec.log_sync && cfg_.enable_log_sync &&
            now >= tier.next_sync_at) {
            const double stall = tier.spec.stall_base_s +
                                 tier.spec.stall_s_per_mb * tier.written_mb;
            // max: an injected stall (InjectStall) may already reach
            // further than this sync's own pause.
            tier.stall_until = std::max(tier.stall_until, now + stall);
            tier.written_mb = 0.0;
            tier.next_sync_at += tier.spec.log_sync_period_s;
        }

        // An idle tier (nothing queued, nothing running) only samples.
        if (!tier.queue.empty() || !tier.running.empty())
            ServeTier(tier, now, dt, end_time);

        tier.queue_len_acc += static_cast<double>(tier.queue.size());
        tier.active_acc += static_cast<double>(tier.active);
        ++tier.tick_samples;
    }
    ++tick_id_;
    in_tick_ = false;
}

IntervalObservation
Cluster::Harvest(double now, double interval_s)
{
    IntervalObservation obs;
    obs.time_s = now;
    obs.rps = static_cast<double>(injected_) / interval_s;
    obs.completed_rps = static_cast<double>(completed_) / interval_s;
    obs.tiers.reserve(tiers_.size());

    auto noisy = [&](double v) {
        if (cfg_.metric_noise <= 0.0)
            return v;
        return std::max(0.0, v * (1.0 + rng_.Normal(0.0,
                                                    cfg_.metric_noise)));
    };

    for (TierState& tier : tiers_) {
        TierMetrics m;
        const double samples =
            std::max<double>(1.0, static_cast<double>(tier.tick_samples));
        m.cpu_limit = tier.cpu_limit;
        m.cpu_used = noisy(tier.cpu_used_acc / interval_s);
        const double inflight = tier.queue_len_acc / samples +
                                tier.active_acc / samples;
        m.rss_mb = noisy(tier.spec.base_rss_mb + tier.written_mb +
                         tier.spec.rss_per_inflight_mb * inflight);
        m.cache_mb = noisy(tier.cache_mb);
        m.rx_pps = noisy(tier.rx_pkts / interval_s);
        m.tx_pps = noisy(tier.tx_pkts / interval_s);
        m.queue_len = tier.queue_len_acc / samples;
        m.active = tier.active_acc / samples;
        m.queue_wait_s =
            tier.wait_count ? tier.wait_acc /
                                  static_cast<double>(tier.wait_count)
                            : 0.0;
        obs.tiers.push_back(m);

        tier.cpu_used_acc = 0.0;
        tier.queue_len_acc = 0.0;
        tier.active_acc = 0.0;
        tier.tick_samples = 0;
        tier.rx_pkts = 0.0;
        tier.tx_pkts = 0.0;
        tier.wait_acc = 0.0;
        tier.wait_count = 0;
    }

    latency_.Seal(); // sort once in place; Quantiles then copies nothing
    obs.latency_ms = latency_.Quantiles(LatencyQuantiles());
    latency_.Reset();
    injected_ = 0;
    completed_ = 0;
    return obs;
}

void
Cluster::SetCpuLimit(int tier, double cores)
{
    if (tier < 0 || tier >= NumTiers())
        throw std::out_of_range("Cluster::SetCpuLimit: bad tier");
    TierState& t = tiers_[tier];
    t.cpu_limit = std::clamp(cores, t.spec.min_cpu, t.spec.max_cpu);
}

void
Cluster::SetCapacityFactor(int tier, double factor)
{
    if (tier < 0 || tier >= NumTiers())
        throw std::out_of_range("Cluster::SetCapacityFactor: bad tier");
    tiers_[tier].capacity_factor = std::clamp(factor, 0.0, 1.0);
}

void
Cluster::InjectStall(int tier, double until_s)
{
    if (tier < 0 || tier >= NumTiers())
        throw std::out_of_range("Cluster::InjectStall: bad tier");
    TierState& t = tiers_[tier];
    t.stall_until = std::max(t.stall_until, until_s);
}

void
Cluster::SetAllocation(const std::vector<double>& cores)
{
    if (static_cast<int>(cores.size()) != NumTiers())
        throw std::invalid_argument("Cluster::SetAllocation: size mismatch");
    for (int i = 0; i < NumTiers(); ++i)
        SetCpuLimit(i, cores[i]);
}

std::vector<double>
Cluster::Allocation() const
{
    std::vector<double> out;
    out.reserve(tiers_.size());
    for (const TierState& t : tiers_)
        out.push_back(t.cpu_limit);
    return out;
}

} // namespace sinan
