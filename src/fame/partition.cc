#include "fame/partition.hh"

#include <algorithm>
#include <cstring>
#include <map>

#include "core/log.hh"

namespace diablo {
namespace fame {

namespace {

/**
 * End of the window that starts at @p t: min(t + q, until), computed
 * without overflow so that a run to SimTime::max() stays defined.
 */
SimTime
windowEnd(SimTime t, SimTime q, SimTime until)
{
    return until - t <= q ? until : t + q;
}

} // namespace

void
PartitionSet::Channel::validatePost(SimTime when) const
{
    // Conservative contract, checked at the source: a post below
    // now + min_latency means the wiring advertised more lookahead than
    // the model really has.  Catch it here, where the offending channel
    // and times are known, instead of as a drain-time causality panic
    // (or worse, a message landing exactly on the destination clock and
    // silently executing one quantum late).
    const SimTime now = owner_->parts_[src_]->now();
    if (when < now + min_latency_) {
        panic("PartitionSet: channel %s: post(when=%s) violates "
              "conservative contract: src partition %zu clock %s + "
              "min latency %s (causality violation)",
              name_.c_str(), when.str().c_str(), src_,
              now.str().c_str(), min_latency_.str().c_str());
    }
}

void
PartitionSet::Channel::post(SimTime when, EventFn fn)
{
    validatePost(when);
    if (pending_.empty()) {
        // First post of this quantum: register on the posting worker's
        // dirty list.  Posts run in source-partition events, so exactly
        // one worker — the one the source partition is fused onto —
        // ever touches this channel (and this list) within a quantum.
        owner_->markChannelDirty(index_, src_);
    }
    pending_.push_back(Msg{when, std::move(fn)});
}

void
PartitionSet::markChannelDirty(uint32_t index, size_t src)
{
    WorkerLane &lane = lanes_[worker_of_[src]];
    if (lane.dirty_count == lane.dirty_cap) {
        growLaneDirty(lane);
    }
    lane.dirty[lane.dirty_count++] = index;
}

void
PartitionSet::growLaneDirty(WorkerLane &lane)
{
    // Worst case every channel goes dirty in one quantum, so sizing to
    // the channel count makes growth a once-per-topology event.  The
    // old storage is abandoned inside the lane's arena (bytes, not
    // allocations, are the cost, and only on growth).
    const uint32_t cap =
        std::max({lane.dirty_cap * 2,
                  static_cast<uint32_t>(channels_.size()), 8u});
    auto *fresh = static_cast<uint32_t *>(
        lane.arena.allocate(cap * sizeof(uint32_t), alignof(uint32_t)));
    if (lane.dirty_count != 0) {
        std::memcpy(fresh, lane.dirty, lane.dirty_count * sizeof(uint32_t));
    }
    lane.dirty = fresh;
    lane.dirty_cap = cap;
}

PartitionSet::PartitionSet(size_t n) : topo_(CpuTopology::host())
{
    if (n == 0) {
        fatal("PartitionSet: need at least one partition");
    }
    parts_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        parts_.push_back(std::make_unique<Simulator>());
    }
    last_run_executed_.assign(n, 0);
    weights_.assign(n, 1.0);
    groups_.assign(n, -1);
    // A valid 1-worker fusion exists from birth, so Channel::post finds
    // a dirty lane even before the first run sets up its own fusion.
    worker_of_.assign(n, 0);
    worker_parts_.resize(1);
    ensureLanes(1);
    lane_active_ = 1;
    worker_cpu_.assign(1, -1);
}

void
PartitionSet::ensureLanes(size_t workers)
{
    if (workers <= lane_count_) {
        return;
    }
    // Lanes are rebuilt wholesale: dirty lists are empty between runs
    // (every quantum drains them) and horizons revalidate lazily, so
    // nothing in the old lanes is worth migrating.
    lanes_ = std::make_unique<WorkerLane[]>(workers);
    lane_count_ = workers;
}

PartitionSet::~PartitionSet()
{
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        pool_shutdown_ = true;
    }
    pool_work_cv_.notify_all();
    for (auto &w : pool_) {
        w.join();
    }
    // Drain every queue before any Simulator is destroyed: a pending
    // cross-partition delivery in partition i's queue can own a packet
    // whose recycling pool is attached to partition j, so no queue may
    // still hold packets once the first pool dies.  (channels_ is
    // declared after parts_ and already destructs first, covering
    // messages still buffered in flight.)
    for (auto &p : parts_) {
        p->discardPendingEvents();
    }
}

PartitionSet::Channel &
PartitionSet::makeChannel(size_t src, size_t dst, SimTime min_latency,
                          std::string name)
{
    if (src >= parts_.size() || dst >= parts_.size()) {
        fatal("PartitionSet: channel endpoints out of range");
    }
    if (min_latency <= SimTime()) {
        fatal("PartitionSet: channel latency must be positive "
              "(conservative lookahead)");
    }
    auto ch = std::make_unique<Channel>();
    ch->owner_ = this;
    ch->src_ = src;
    ch->dst_ = dst;
    ch->index_ = static_cast<uint32_t>(channels_.size());
    ch->min_latency_ = min_latency;
    ch->name_ = name.empty()
                    ? strprintf("ch%zu(%zu->%zu)", channels_.size(), src,
                                dst)
                    : std::move(name);
    channels_.push_back(std::move(ch));
    quantum_cache_valid_ = false; // min channel latency may have dropped
    return *channels_.back();
}

void
PartitionSet::setQuantum(SimTime q)
{
    if (q <= SimTime()) {
        fatal("PartitionSet: quantum must be strictly positive (got %s); "
              "use clearQuantum() to drop an override",
              q.str().c_str());
    }
    quantum_override_ = q;
    quantum_cache_valid_ = false;
}

SimTime
PartitionSet::computeQuantum() const
{
    SimTime min_latency = SimTime::max();
    for (const auto &ch : channels_) {
        min_latency = std::min(min_latency, ch->min_latency_);
    }
    if (quantum_override_ > SimTime()) {
        if (quantum_override_ > min_latency) {
            fatal("PartitionSet: quantum override %s exceeds minimum "
                  "channel latency %s (breaks conservative lookahead)",
                  quantum_override_.str().c_str(),
                  min_latency.str().c_str());
        }
        return quantum_override_;
    }
    if (min_latency == SimTime::max()) {
        return kNoChannelQuantum; // no channels: partitions independent
    }
    return min_latency;
}

SimTime
PartitionSet::quantum() const
{
    if (!quantum_cache_valid_) {
        quantum_cache_ = computeQuantum();
        quantum_cache_valid_ = true;
    }
    return quantum_cache_;
}

void
PartitionSet::setParallelism(size_t n)
{
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (run_active_) {
        fatal("PartitionSet: setParallelism while a parallel run is "
              "live");
    }
    if (n > parts_.size()) {
        // Extra workers could never own a partition; accepting the
        // request silently used to make parallelism() lie to tooling.
        if (!clamp_warned_) {
            log::warn("PartitionSet: parallelism %zu exceeds partition "
                      "count %zu; clamping to %zu",
                      n, parts_.size(), parts_.size());
            clamp_warned_ = true;
        }
        n = parts_.size();
    }
    threads_ = n;
}

void
PartitionSet::setWorkerPinning(bool enable)
{
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (run_active_) {
        fatal("PartitionSet: setWorkerPinning while a parallel run is "
              "live");
    }
    pin_mode_ = enable ? PinMode::Auto : PinMode::Off;
    pin_cpus_.clear();
}

void
PartitionSet::setWorkerCpus(std::vector<int> cpus)
{
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (run_active_) {
        fatal("PartitionSet: setWorkerCpus while a parallel run is "
              "live");
    }
    for (int c : cpus) {
        if (topo_.llcGroupOf(c) < 0) {
            fatal("PartitionSet: setWorkerCpus: cpu %d is not an online "
                  "CPU of this host's topology (%zu CPUs)",
                  c, topo_.cpuCount());
        }
    }
    pin_cpus_ = std::move(cpus);
    pin_mode_ = PinMode::Explicit;
}

void
PartitionSet::setCpuTopology(CpuTopology topo)
{
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (run_active_) {
        fatal("PartitionSet: setCpuTopology while a parallel run is "
              "live");
    }
    topo_ = std::move(topo);
}

size_t
PartitionSet::parallelism() const
{
    if (threads_ != 0) {
        return threads_;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

void
PartitionSet::setPartitionWeight(size_t i, double w)
{
    if (i >= parts_.size()) {
        fatal("PartitionSet: setPartitionWeight(%zu): out of range", i);
    }
    if (!(w > 0.0)) {
        fatal("PartitionSet: partition weight must be positive");
    }
    weights_[i] = w;
}

void
PartitionSet::setPartitionGroup(size_t i, int64_t group)
{
    if (i >= parts_.size()) {
        fatal("PartitionSet: setPartitionGroup(%zu): out of range", i);
    }
    groups_[i] = group;
}

void
PartitionSet::assignPartitions(size_t workers)
{
    worker_parts_.resize(workers);
    for (auto &wp : worker_parts_) {
        wp.clear();
    }
    worker_of_.resize(parts_.size());
    ensureLanes(workers);
    lane_active_ = workers;
    for (size_t w = 0; w < workers; ++w) {
        // Events may have been scheduled from outside between runs;
        // horizons revalidate on each worker's first window.
        lanes_[w].horizon_valid = false;
        lanes_[w].published_min = SimTime::max();
    }

    std::vector<double> load(workers, 0.0);
    if (workers == 1) {
        for (size_t p = 0; p < parts_.size(); ++p) {
            worker_of_[p] = 0;
            worker_parts_[0].push_back(p);
            load[0] += weights_[p];
        }
        placeWorkers(workers, load);
        return;
    }

    // Deterministic two-level LPT greedy.  Level 1 works on locality
    // groups (setPartitionGroup; ungrouped partitions are singletons):
    // heaviest group first, onto the least-loaded worker (ties: lowest
    // worker id) — *if* placing the whole group there would not push
    // that worker past 1.25x the ideal per-worker share.  A group too
    // heavy to keep together spills to level 2, where its partitions
    // are placed individually by plain LPT.  With many more groups
    // than workers this preserves rack->array locality; with few heavy
    // groups it degenerates to the old partition-level balance.
    // Results never depend on the assignment — only wall-clock does.
    double total = 0.0;
    for (size_t p = 0; p < parts_.size(); ++p) {
        total += weights_[p];
    }
    const double ideal = total / static_cast<double>(workers);
    const double cap = ideal * 1.25;

    // Collect groups in first-appearance order (deterministic).
    std::vector<std::vector<size_t>> group_parts;
    std::vector<double> group_weight;
    {
        std::map<int64_t, size_t> seen;
        for (size_t p = 0; p < parts_.size(); ++p) {
            if (groups_[p] < 0) {
                group_parts.push_back({p});
                group_weight.push_back(weights_[p]);
                continue;
            }
            auto it = seen.find(groups_[p]);
            if (it == seen.end()) {
                seen.emplace(groups_[p], group_parts.size());
                group_parts.push_back({p});
                group_weight.push_back(weights_[p]);
            } else {
                group_parts[it->second].push_back(p);
                group_weight[it->second] += weights_[p];
            }
        }
    }

    std::vector<size_t> gorder(group_parts.size());
    for (size_t g = 0; g < gorder.size(); ++g) {
        gorder[g] = g;
    }
    std::stable_sort(gorder.begin(), gorder.end(),
                     [&group_weight](size_t a, size_t b) {
                         return group_weight[a] > group_weight[b];
                     });

    auto leastLoaded = [&load, workers]() {
        size_t best = 0;
        for (size_t w = 1; w < workers; ++w) {
            if (load[w] < load[best]) {
                best = w;
            }
        }
        return best;
    };
    auto place = [this, &load](size_t p, size_t w) {
        load[w] += weights_[p];
        worker_of_[p] = static_cast<uint32_t>(w);
        worker_parts_[w].push_back(p);
    };

    std::vector<size_t> spill;
    for (size_t g : gorder) {
        const size_t best = leastLoaded();
        if (group_parts[g].size() > 1 &&
            load[best] + group_weight[g] > cap) {
            // Keeping this group together would overload the worker;
            // remember its partitions for level-2 placement.
            spill.insert(spill.end(), group_parts[g].begin(),
                         group_parts[g].end());
            continue;
        }
        for (size_t p : group_parts[g]) {
            place(p, best);
        }
    }
    std::stable_sort(spill.begin(), spill.end(),
                     [this](size_t a, size_t b) {
                         return weights_[a] > weights_[b];
                     });
    for (size_t p : spill) {
        place(p, leastLoaded());
    }
    // Within one worker, keep partition-index order (pure cosmetics —
    // partitions are independent inside a quantum).
    for (auto &wp : worker_parts_) {
        std::sort(wp.begin(), wp.end());
    }
    placeWorkers(workers, load);
}

void
PartitionSet::placeWorkers(size_t workers, const std::vector<double> &load)
{
    worker_cpu_.assign(workers, -1);
    if (pin_mode_ == PinMode::Explicit) {
        for (size_t w = 0; w < workers && w < pin_cpus_.size(); ++w) {
            worker_cpu_[w] = pin_cpus_[w];
        }
    } else if (pin_mode_ == PinMode::Auto) {
        // Pin only when every worker can own a CPU: an oversubscribed
        // run gains nothing from affinity (the barrier already parks
        // immediately), and a solo run should not perturb the caller's
        // mask for a degenerate fusion.
        if (workers < 2 || workers > topo_.cpuCount()) {
            for (size_t w = 0; w < workers; ++w) {
                lanes_[w].cpu = -1;
            }
            return;
        }
        // Worker-to-worker affinity = number of channels crossing the
        // pair.  Heaviest worker first, each taking the free CPU with
        // the most affinity into LLC groups of already-placed partners
        // (ties: lowest cpu id) — so fused sets that exchange messages
        // land on LLC siblings and the serial drain stays on-package.
        // Affinity into the same NUMA node but a different LLC scores
        // half the same-LLC tier: on a multi-socket host, when no
        // LLC-sibling CPU is free, a worker still lands on its
        // partners' node rather than paying a cross-socket drain.
        std::vector<uint32_t> aff(workers * workers, 0);
        for (const auto &ch : channels_) {
            const uint32_t a = worker_of_[ch->src_];
            const uint32_t b = worker_of_[ch->dst_];
            if (a != b) {
                ++aff[a * workers + b];
                ++aff[b * workers + a];
            }
        }
        std::vector<size_t> order(workers);
        for (size_t w = 0; w < workers; ++w) {
            order[w] = w;
        }
        std::stable_sort(order.begin(), order.end(),
                         [&load](size_t a, size_t b) {
                             return load[a] > load[b];
                         });
        std::vector<char> taken(topo_.cpuCount(), 0);
        for (size_t w : order) {
            size_t best = SIZE_MAX;
            uint64_t best_score = 0;
            for (size_t c = 0; c < topo_.cpuCount(); ++c) {
                if (taken[c]) {
                    continue;
                }
                uint64_t score = 0;
                const int c_numa = c < topo_.numa_of.size()
                                       ? topo_.numa_of[c]
                                       : 0;
                for (size_t v = 0; v < workers; ++v) {
                    if (v == w || worker_cpu_[v] < 0) {
                        continue;
                    }
                    if (topo_.llcGroupOf(worker_cpu_[v]) == topo_.llc_of[c]) {
                        score += 2 * aff[w * workers + v];
                    } else if (topo_.numaNodeOf(worker_cpu_[v]) == c_numa) {
                        score += aff[w * workers + v];
                    }
                }
                if (best == SIZE_MAX || score > best_score) {
                    best = c;
                    best_score = score;
                }
            }
            if (best == SIZE_MAX) {
                continue; // unreachable: workers <= cpuCount above
            }
            taken[best] = 1;
            worker_cpu_[w] = topo_.cpus[best];
        }
    }
    for (size_t w = 0; w < workers; ++w) {
        lanes_[w].cpu = worker_cpu_[w];
    }
}

SimTime
PartitionSet::drainDirtyChannels()
{
    // Merge the per-worker dirty lists and drain in channel-creation
    // order: the destination-queue insertion sequence — and therefore
    // same-timestamp tie-breaking — must not depend on the fusion.
    drain_scratch_.clear();
    for (size_t w = 0; w < lane_active_; ++w) {
        WorkerLane &lane = lanes_[w];
        if (lane.dirty_count != 0) {
            drain_scratch_.insert(drain_scratch_.end(), lane.dirty,
                                  lane.dirty + lane.dirty_count);
            lane.dirty_count = 0;
        }
    }
    if (drain_scratch_.empty()) {
        return SimTime::max();
    }
    std::sort(drain_scratch_.begin(), drain_scratch_.end());
    SimTime min_when = SimTime::max();
    for (uint32_t idx : drain_scratch_) {
        Channel &ch = *channels_[idx];
        Simulator &dst = *parts_[ch.dst_];
        WorkerLane &dst_lane = lanes_[worker_of_[ch.dst_]];
        SimTime ch_min = SimTime::max();
        for (auto &msg : ch.pending_) {
            if (msg.when < dst.now()) {
                panic("PartitionSet: channel %s: causality violation "
                      "(message at %s behind partition clock %s)",
                      ch.name_.c_str(), msg.when.str().c_str(),
                      dst.now().str().c_str());
            }
            ch_min = std::min(ch_min, msg.when);
            dst.scheduleAt(msg.when, std::move(msg.fn));
        }
        min_when = std::min(min_when, ch_min);
        // A message landing in the destination's fused set lowers that
        // worker's cached horizon; folding it here keeps the per-worker
        // quantum skip exact without any rescan.
        if (dst_lane.horizon_valid) {
            dst_lane.horizon = std::min(dst_lane.horizon, ch_min);
        }
        // clear() keeps capacity: steady-state traffic re-posts into
        // the same storage with no allocator round trips.
        ch.pending_.clear();
    }
    return min_when;
}

SimTime
PartitionSet::earliestPendingTime()
{
    SimTime earliest = SimTime::max();
    for (auto &p : parts_) {
        earliest = std::min(earliest, p->nextEventTime());
    }
    for (const auto &ch : channels_) {
        for (const auto &msg : ch->pending_) {
            earliest = std::min(earliest, msg.when);
        }
    }
    return earliest;
}

SimTime
PartitionSet::windowForEarliest(SimTime earliest, SimTime t, SimTime q,
                                SimTime until)
{
    if (earliest >= until) {
        return until; // nothing left before the horizon
    }
    if (earliest < t + q) {
        return t; // current window has work; no skip
    }
    // Snap down to the quantum grid so the skipped run executes the
    // exact same window sequence a patient unskipped run would.
    const SimTime snapped = earliest - (earliest % q);
    return std::max(t, snapped);
}

SimTime
PartitionSet::nextWindowStart(SimTime t, SimTime q, SimTime until)
{
    if (!skip_idle_) {
        return t;
    }
    return windowForEarliest(earliestPendingTime(), t, q, until);
}

void
PartitionSet::beginRunStats()
{
    run_start_quanta_ = quanta_;
    for (size_t i = 0; i < parts_.size(); ++i) {
        last_run_executed_[i] = parts_[i]->executedEvents();
    }
}

void
PartitionSet::endRunStats()
{
    last_run_quanta_ = quanta_ - run_start_quanta_;
    for (size_t i = 0; i < parts_.size(); ++i) {
        last_run_executed_[i] =
            parts_[i]->executedEvents() - last_run_executed_[i];
    }
}

uint64_t
PartitionSet::lastRunTotalExecutedEvents() const
{
    uint64_t n = 0;
    for (uint64_t e : last_run_executed_) {
        n += e;
    }
    return n;
}

void
PartitionSet::resetStats()
{
    quanta_ = 0;
    run_start_quanta_ = 0;
    last_run_quanta_ = 0;
    std::fill(last_run_executed_.begin(), last_run_executed_.end(),
              uint64_t{0});
}

void
PartitionSet::runSequential(SimTime until)
{
    const SimTime q = quantum();
    // The reference engine is a 1-worker fusion for channel-dirty
    // bookkeeping, but keeps the simple full-scan skip rule: it is the
    // obviously-correct baseline the incremental parallel engine is
    // checked against bit-for-bit.
    assignPartitions(1);
    beginRunStats();
    SimTime t;
    while (t < until) {
        t = nextWindowStart(t, q, until);
        if (t >= until) {
            break;
        }
        const SimTime bound = windowEnd(t, q, until);
        for (auto &p : parts_) {
            p->runBefore(bound);
        }
        drainDirtyChannels();
        t = bound;
        ++quanta_;
    }
    endRunStats();
}

void
PartitionSet::parallelQuantumEnd() noexcept
{
    // Runs on the last worker arriving at the barrier, single-threaded
    // (the barrier sequences the completion step before releasing
    // anyone).  Incremental form of runSequential's loop tail: the
    // earliest pending time is the fold of (a) each worker's published
    // post-quantum minimum over its fused partitions and (b) the
    // minima of the messages drained just now — the only two places
    // future work can live — so no partition or channel scan happens
    // here.  Window sequence, and thus every result, stays identical.
    const SimTime msg_min = drainDirtyChannels();
    par_t_ = par_bound_;
    ++quanta_;
    if (skip_idle_) {
        SimTime earliest = msg_min;
        for (size_t w = 0; w < par_workers_; ++w) {
            earliest = std::min(earliest, lanes_[w].published_min);
        }
        par_t_ = windowForEarliest(earliest, par_t_, par_q_, par_until_);
    }
    par_bound_ = windowEnd(par_t_, par_q_, par_until_);
    if (par_t_ >= par_until_) {
        par_done_ = true;
    }
}

void
PartitionSet::workerBody(size_t w)
{
    const std::vector<size_t> &mine = worker_parts_[w];
    WorkerLane &lane = lanes_[w];
    const bool solo = par_workers_ == 1;
    uint32_t sense = 0;
    while (!par_done_) {
        const SimTime bound = par_bound_;
        if (!lane.horizon_valid || lane.horizon < bound) {
            // Work (or unknown state) below the bound: advance the
            // fused set and recompute the cached horizon.
            SimTime local_min = SimTime::max();
            for (size_t p : mine) {
                parts_[p]->runBefore(bound);
                local_min =
                    std::min(local_min, parts_[p]->nextEventTime());
            }
            lane.horizon = local_min;
            lane.horizon_valid = true;
        }
        // else: per-worker quantum skip.  Nothing of this fused set
        // fires before the bound — the serial drain folds incoming
        // messages into the horizon, so the cache is exact — and the
        // window costs one barrier round, zero partition scans.
        lane.published_min = lane.horizon;
        if (solo) {
            // Degenerate fusion: no siblings, so no barrier at all —
            // this is the near-runSequential configuration.
            parallelQuantumEnd();
        } else {
            sense ^= 1u;
            barrier_.arriveAndWait(
                static_cast<uint32_t>(w), sense,
                [this]() noexcept { parallelQuantumEnd(); });
        }
    }
}

void
PartitionSet::ensureWorkerPool(size_t pool_threads)
{
    // Grow on demand, never shrink: an idle pooled worker costs one
    // parked thread, re-spawning costs a clone() per run.
    while (pool_.size() < pool_threads) {
        const size_t worker_id = pool_.size() + 1; // caller is worker 0
        pool_.emplace_back([this, worker_id] { workerLoop(worker_id); });
    }
}

void
PartitionSet::workerLoop(size_t worker_id)
{
    // The thread's inherited mask is home base: runs whose placement
    // pins this worker narrow it, runs that don't restore it.
    const SavedAffinity home = saveCurrentThreadAffinity();
    bool pinned = false;
    uint64_t seen_generation = 0;
    for (;;) {
        bool participate;
        int cpu = -1;
        {
            std::unique_lock<std::mutex> lk(pool_mu_);
            pool_work_cv_.wait(lk, [&] {
                return pool_shutdown_ ||
                       pool_generation_ != seen_generation;
            });
            if (pool_shutdown_) {
                return;
            }
            seen_generation = pool_generation_;
            // A run fusing fewer workers than the pool holds leaves the
            // extra threads parked; they are not counted in
            // workers_running_ and never touch the barrier.
            participate = worker_id < par_workers_;
            if (participate) {
                cpu = worker_cpu_[worker_id];
            }
        }
        if (!participate) {
            continue;
        }
        if (cpu >= 0) {
            pinned = pinCurrentThreadToCpu(cpu);
        } else if (pinned) {
            restoreCurrentThreadAffinity(home);
            pinned = false;
        }
        // The initial window state was published under pool_mu_, and
        // every subsequent write happens in the barrier completion
        // step, which strongly-happens-before the workers resume.
        workerBody(worker_id);
        {
            std::lock_guard<std::mutex> lk(pool_mu_);
            if (--workers_running_ == 0) {
                pool_idle_cv_.notify_all();
            }
        }
    }
}

void
PartitionSet::runParallel(SimTime until)
{
    const SimTime q = quantum();
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        if (run_active_) {
            fatal("PartitionSet: runParallel re-entered while a parallel "
                  "run's workers are live");
        }
        run_active_ = true;
    }
    beginRunStats();

    const size_t workers = std::min(parts_.size(), parallelism());
    assignPartitions(workers);
    par_workers_ = workers;
    last_oversubscribed_ = workers > topo_.cpuCount();
    par_q_ = q;
    par_until_ = until;
    par_t_ = nextWindowStart(SimTime(), q, until);
    par_bound_ = windowEnd(par_t_, q, until);
    par_done_ = par_t_ >= until;

    if (!par_done_) {
        // The caller doubles as worker 0: borrow its affinity for the
        // run when the placement pinned worker 0, and hand it back on
        // exit regardless of how the run went.
        const int cpu0 = worker_cpu_.empty() ? -1 : worker_cpu_[0];
        SavedAffinity home;
        bool pinned0 = false;
        if (cpu0 >= 0) {
            home = saveCurrentThreadAffinity();
            pinned0 = pinCurrentThreadToCpu(cpu0);
        }
        if (workers > 1) {
            barrier_.init(static_cast<uint32_t>(workers));
            // Spinning only pays when every worker owns a core; on an
            // oversubscribed host each spin slot burns the scheduler
            // quantum the sibling worker needs, so park immediately.
            barrier_.setSpinBudget(last_oversubscribed_
                                       ? 0
                                       : TreeBarrier::kDefaultSpinBudget);
            {
                std::lock_guard<std::mutex> lk(pool_mu_);
                ++pool_generation_;
                workers_running_ = workers - 1;
            }
            pool_work_cv_.notify_all();
            // Spawn missing pool threads only after the generation and
            // running count are published: a new thread starts with
            // seen_generation 0 and participates immediately.
            ensureWorkerPool(workers - 1);
            workerBody(0); // the calling thread is worker 0
            std::unique_lock<std::mutex> lk(pool_mu_);
            pool_idle_cv_.wait(lk, [&] { return workers_running_ == 0; });
        } else {
            workerBody(0); // fused to one worker: no pool, no barrier
        }
        if (pinned0) {
            restoreCurrentThreadAffinity(home);
        }
    }
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        run_active_ = false;
    }
    endRunStats();
}

uint64_t
PartitionSet::totalExecutedEvents() const
{
    uint64_t n = 0;
    for (const auto &p : parts_) {
        n += p->executedEvents();
    }
    return n;
}

} // namespace fame
} // namespace diablo
