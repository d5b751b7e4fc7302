/**
 * @file
 * Paper-workload slowdown benchmark program.
 *
 * Runs one paper workload from a seed through the public library API
 * (fame::PartitionSet, sim::Cluster, apps::McExperiment,
 * apps::IncastApp, analysis::RunArtifact).  Every round makes two
 * passes over the same generated inputs: first on the sequential
 * engine (`seq`), then on the parallel engine with two workers
 * (`par2`).  Each pass builds the model, installs the apps, runs the
 * batch simulation to completion, checks it, fingerprints it and tears
 * it down.  Rounds repeat for about --seconds of host time, and every
 * timing is reported as a median over the passes.
 *
 * The headline metric is the paper's §5 speed measure, slowdown: host
 * seconds per simulated second of the run phase (for memcached, of its
 * load phase; see runMcPass).  With --trace 1 the
 * program alternates untraced and traced rounds and reports per-layer
 * numbers taken from the spans it records around each call into a
 * layer (see perfbench/README.md for the span and metric map).
 *
 *   perfbench_run --workload memcached_2k --seed 7 --seconds 20 --trace 0
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics.  A run in which no pass of an engine
 * completed and checked prints no result and exits 1.
 */

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analysis/artifact.hh"
#include "analysis/json_writer.hh"
#include "apps/incast.hh"
#include "apps/mc_experiment.hh"
#include "apps/memcached.hh"
#include "core/config.hh"
#include "core/cpu_topology.hh"
#include "core/log.hh"
#include "core/random.hh"
#include "fame/partition.hh"
#include "sim/cluster.hh"

namespace {

using namespace diablo;
using Clock = std::chrono::steady_clock;

/**
 * Set-up sampling of a timed run: at least kSetupSamples set-up-only
 * builds, and more, up to kSetupSamplesMax, until they add up to
 * kSetupBudgetS of host time.
 */
constexpr size_t kSetupSamples = 5;
constexpr size_t kSetupSamplesMax = 200;
constexpr double kSetupBudgetS = 1.0;
/** Memcached outer engine window (McExperiment::run's). */
constexpr SimTime kMcWindow = SimTime::ms(100);
/** Simulated-time cap after which a memcached pass counts as failed. */
constexpr SimTime kMcCap = SimTime::sec(60);
/** Outer engine window of the incast run loop (as in diablo_run). */
constexpr SimTime kIncastWindow = SimTime::ms(250);
/** Simulated-time cap after which an incast pass counts as failed. */
constexpr SimTime kIncastCap = SimTime::sec(60);

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------

/** A kB field of /proc/self/status ("VmRSS", "VmHWM") in MiB. */
double
procStatusMb(const char *field)
{
    std::ifstream in("/proc/self/status");
    const size_t n = std::strlen(field);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':') {
            return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

/**
 * Hand freed heap back to the kernel, then restart the VmHWM high-water
 * mark at the current RSS, so the next pass's peak is its own and not
 * the previous pass's.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/**
 * In-memory span log of one benchmark run, written out when the run
 * ends.  Pass spans (`pass.seq`, `pass.par2`) are roots; every other
 * span names its pass as parent.  All spans share the run id.
 */
class Tracer {
  public:
    struct Span {
        uint64_t id = 0;
        uint64_t parent = 0; ///< 0 for a pass span
        std::string name;
        double start_s = 0.0; ///< host seconds since the tracer began
        double end_s = 0.0;
        uint64_t events = 0; ///< engine events executed inside the span
        uint64_t quanta = 0; ///< engine quanta executed inside the span
    };

    explicit Tracer(std::string run_id)
        : run_id_(std::move(run_id)), t0_(Clock::now())
    {
    }

    uint64_t nextId() { return ++last_id_; }

    void
    record(uint64_t id, uint64_t parent, const char *name,
           Clock::time_point start, Clock::time_point end,
           uint64_t events = 0, uint64_t quanta = 0)
    {
        spans_.push_back(Span{id, parent, name, secondsBetween(t0_, start),
                              secondsBetween(t0_, end), events, quanta});
    }

    /** Durations (s) of every @p name span whose parent is a @p pass span. */
    std::vector<double>
    durations(const std::string &name, const std::string &pass) const
    {
        std::unordered_set<uint64_t> parents;
        for (const Span &s : spans_) {
            if (s.name == pass) {
                parents.insert(s.id);
            }
        }
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (s.name == name && parents.count(s.parent) != 0) {
                out.push_back(s.end_s - s.start_s);
            }
        }
        return out;
    }

    const std::string &runId() const { return run_id_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::string run_id_;
    Clock::time_point t0_;
    uint64_t last_id_ = 0;
    std::vector<Span> spans_;
};

/** The spans of one pass; records nothing when the pass is untraced. */
class PassSpans {
  public:
    PassSpans(Tracer *tr, const char *pass_name)
        : tr_(tr), name_(pass_name), id_(tr != nullptr ? tr->nextId() : 0)
    {
    }

    bool on() const { return tr_ != nullptr; }

    void
    add(const char *name, Clock::time_point a, Clock::time_point b,
        uint64_t events = 0, uint64_t quanta = 0)
    {
        if (tr_ != nullptr) {
            tr_->record(tr_->nextId(), id_, name, a, b, events, quanta);
        }
    }

    /** Close the pass span itself. */
    void
    finish(Clock::time_point a, Clock::time_point b, uint64_t events,
           uint64_t quanta)
    {
        if (tr_ != nullptr) {
            tr_->record(id_, 0, name_, a, b, events, quanta);
        }
    }

  private:
    Tracer *tr_;
    const char *name_;
    uint64_t id_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Engine { Seq, Par2 };

const char *
passName(Engine e)
{
    return e == Engine::Seq ? "pass.seq" : "pass.par2";
}

struct Workload {
    bool incast = false;
    // incast_4rack
    sim::ClusterParams cp;
    apps::IncastParams ip;
    std::vector<net::NodeId> servers;
    uint32_t racks = 0;
    // memcached_*
    apps::McExperimentParams mc;
    uint32_t expected_clients = 0;
    /** Outer windows of the load phase the slowdown is timed over. */
    uint32_t load_windows = 0;
};

/**
 * Build a workload's inputs from @p seed.  Parameters follow
 * `diablo_run` (ClusterParams::gige1us() plus the same config keys),
 * so a memcached fingerprint equals `diablo_run memcached seed=<seed>`
 * with the same topology keys.  @p smoke shrinks the request and
 * iteration counts for the benchmark's own tests.
 */
bool
makeWorkload(const std::string &name, uint64_t seed, bool smoke,
             Workload &w)
{
    Config cfg;
    cfg.set("seed", seed);
    if (name == "incast_4rack") {
        // Fig 6a: 32 servers fanned in over 4 racks, 256 KB blocks.
        constexpr uint32_t kServers = 32;
        w.incast = true;
        w.racks = 4;
        w.cp = sim::ClusterParams::gige1us();
        w.cp.applyConfig(cfg);
        w.cp.topo.servers_per_rack = (kServers + 1 + w.racks - 1) / w.racks;
        w.cp.topo.racks_per_array = w.racks;
        w.cp.topo.num_arrays = 1;
        w.ip.block_bytes = 256 * 1024;
        w.ip.iterations = smoke ? 2 : 20;
        // The incast model draws no random numbers, so the seed picks
        // the server-to-rack placement: kServers of the non-client
        // slots, ascending.  Node 0 (rack 0) is the client.
        std::vector<net::NodeId> slots;
        const uint32_t total = w.cp.topo.totalServers();
        for (net::NodeId n = 1; n < total; ++n) {
            slots.push_back(n);
        }
        Rng rng = Rng(seed).fork("perfbench.incast.placement");
        for (size_t i = slots.size() - 1; i > 0; --i) {
            std::swap(slots[i], slots[rng.uniformInt(0, i)]);
        }
        w.servers.assign(slots.begin(), slots.begin() + kServers);
        std::sort(w.servers.begin(), w.servers.end());
        return true;
    }
    apps::McExperimentParams &p = w.mc;
    if (name == "memcached_2k") {
        // Fig 10: the default 31 x 16 x 4 = 1,984-node array, a client
        // on every non-server node.
        p.num_servers = 128;
        p.client.requests = smoke ? 5 : 200;
        w.load_windows = 6;
    } else if (name == "memcached_32k") {
        // §6.3: 32 x 32 x 32 lazy nodes, 64 servers + 64 clients.
        cfg.set("topo.servers_per_rack", 32);
        cfg.set("topo.racks_per_array", 32);
        cfg.set("topo.num_arrays", 32);
        p.num_servers = 64;
        p.num_clients = 64;
        p.sketch_stats = true;
        p.client.requests = smoke ? 10 : 300;
        w.load_windows = 4;
    } else {
        return false;
    }
    p.cluster = sim::ClusterParams::gige1us();
    p.cluster.applyConfig(cfg);
    p.server.udp = true;
    p.server.version = 1417;
    p.server.worker_threads = 4;
    p.client.udp = true;
    p.client.think_mean = SimTime::microseconds(1500.0);
    w.expected_clients = p.num_clients != 0
                             ? p.num_clients
                             : p.cluster.topo.totalServers() -
                                   p.num_servers;
    return true;
}

// ---------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------

/** Everything one pass measured. */
struct PassResult {
    Engine engine = Engine::Seq;
    bool traced = false;
    bool ok = false;      ///< completed and (later) fingerprint-checked
    std::string failure;  ///< why !ok
    uint64_t fingerprint = 0;

    // Host seconds per phase.
    double build_s = 0.0;   ///< PartitionSet + cluster/experiment build
    double install_s = 0.0; ///< app install
    double run_s = 0.0;     ///< every engine window
    double sim_s = 0.0;     ///< simulated seconds the run phase covered
    /** The part of the run phase the slowdown is timed over (host s,
     *  simulated s): all of it for incast, the load phase for memcached. */
    double load_run_s = 0.0;
    double load_sim_s = 0.0;

    double peak_rss_mb = 0.0;
    double rss_after_build_mb = 0.0;

    // fame / core
    uint64_t events = 0;
    uint64_t quanta = 0;
    uint64_t windows = 0;
    size_t partitions = 0;
    size_t partitions_active = 0;
    double event_imbalance = 0.0;
    size_t workers = 1;
    bool oversubscribed = false;
    std::vector<int> worker_cpus;

    // sim
    uint64_t materialized = 0;
    double arena_mb = 0.0;

    // apps
    uint64_t requests_completed = 0;
    uint64_t udp_retries = 0;
    double goodput_mbps = 0.0;

    // os, switchm, nic, net
    uint64_t tcp_retransmits = 0;
    uint64_t tcp_rtos = 0;
    uint64_t udp_socket_drops = 0;
    uint64_t forwarded = 0;
    uint64_t switch_drops = 0;
    uint64_t nic_rx_drops = 0;
    uint64_t nic_tx_ring_drops = 0;
    uint64_t pool_makes = 0;
    uint64_t pool_recycles = 0;
    uint64_t pool_heap_allocs = 0;
    uint64_t delivery_trains = 0;
    uint64_t deliveries_coalesced = 0;

    double setupS() const { return build_s + install_s; }
    double slowdown() const { return load_run_s / load_sim_s; }
};

std::unique_ptr<fame::PartitionSet>
makeEngine(size_t partitions, Engine e)
{
    auto ps = std::make_unique<fame::PartitionSet>(partitions);
    if (e == Engine::Par2) {
        ps->setParallelism(2);
    }
    return ps;
}

void
step(fame::PartitionSet &ps, Engine e, SimTime until)
{
    if (e == Engine::Par2) {
        ps.runParallel(until);
    } else {
        ps.runSequential(until);
    }
}

/** Engine, memory and per-layer counters of a finished pass. */
void
collect(sim::Cluster &c, fame::PartitionSet &ps, PassResult &r)
{
    r.peak_rss_mb = procStatusMb("VmHWM");
    r.partitions = ps.size();
    r.events = ps.totalExecutedEvents();
    r.quanta = ps.quantaExecuted();
    uint64_t max_events = 0;
    for (size_t i = 0; i < ps.size(); ++i) {
        const uint64_t e = ps.partition(i).executedEvents();
        max_events = std::max(max_events, e);
        r.partitions_active += e != 0 ? 1 : 0;
    }
    if (r.partitions_active != 0) {
        r.event_imbalance = static_cast<double>(max_events) *
                            static_cast<double>(r.partitions_active) /
                            static_cast<double>(r.events);
    }
    if (r.engine == Engine::Par2) {
        r.workers = ps.lastRunWorkers();
        r.oversubscribed = ps.lastRunOversubscribed();
        r.worker_cpus = ps.lastRunWorkerCpus();
    }
    r.materialized = c.materializedServers();
    for (const auto &a : c.arenaStats()) {
        r.arena_mb += static_cast<double>(a.bytes_reserved) /
                      (1024.0 * 1024.0);
    }
    r.tcp_retransmits = c.totalTcpRetransmits();
    r.tcp_rtos = c.totalTcpRtos();
    r.udp_socket_drops = c.totalUdpSocketDrops();
    r.forwarded = c.network().totalForwarded();
    r.switch_drops = c.network().totalSwitchDrops();
    r.nic_rx_drops = c.totalNicRxDrops();
    r.nic_tx_ring_drops = c.totalNicTxRingDrops();
    for (const auto &p : c.poolStats()) {
        r.pool_makes += p.makes;
        r.pool_recycles += p.recycles;
        r.pool_heap_allocs += p.heap_allocs;
    }
    r.delivery_trains = c.totalDeliveryTrains();
    r.deliveries_coalesced = c.totalDeliveriesCoalesced();
}

/**
 * The deterministic artifact fields `diablo_run` folds after the app
 * results (node count, network + datapath groups, per-partition pool
 * ledger), in its order, so fingerprints stay comparable.
 */
void
addCommonArtifact(analysis::RunArtifact &a, sim::Cluster &c,
                  fame::PartitionSet &ps)
{
    a.nodes = c.size();
    auto &net = a.addGroup("network");
    net.counters = {
        {"switch_drops", c.network().totalSwitchDrops()},
        {"forwarded", c.network().totalForwarded()},
        {"tcp_retransmits", c.totalTcpRetransmits()},
        {"tcp_rtos", c.totalTcpRtos()},
        {"udp_socket_drops", c.totalUdpSocketDrops()},
        {"nic_rx_drops", c.totalNicRxDrops()},
    };
    auto &dp = a.addGroup("datapath");
    dp.counters = {
        {"delivery_trains", c.totalDeliveryTrains()},
        {"deliveries_coalesced", c.totalDeliveriesCoalesced()},
        {"nic_tx_ring_drops", c.totalNicTxRingDrops()},
    };
    const auto pools = c.poolStats();
    for (size_t i = 0; i < pools.size(); ++i) {
        analysis::RunArtifact::PartitionRow row;
        row.events = ps.partition(i).executedEvents();
        row.pool_makes = pools[i].makes;
        row.pool_returns = pools[i].returns;
        a.partition_rows.push_back(row);
    }
}

/**
 * Run one incast pass.  @p setup_only stops after app install (a
 * set-up sample); the pass then has no run phase and no fingerprint,
 * and it skips the peak-RSS reset, so it builds into the heap the
 * previous pass left mapped.
 */
PassResult
runIncastPass(const Workload &w, Engine eng, Tracer *tr, bool setup_only)
{
    PassResult r;
    r.engine = eng;
    r.traced = tr != nullptr;
    PassSpans spans(tr, passName(eng));

    if (!setup_only) {
        resetPeakRss();
    }
    const Clock::time_point t0 = Clock::now();
    auto ps = makeEngine(sim::Cluster::partitionsRequired(w.cp), eng);
    auto cluster = std::make_unique<sim::Cluster>(*ps, w.cp);
    auto app = std::make_unique<apps::IncastApp>(*cluster, w.ip, 0,
                                                 w.servers);
    const Clock::time_point t_built = Clock::now();
    app->install();
    r.rss_after_build_mb = procStatusMb("VmRSS");
    const Clock::time_point t_installed = Clock::now();
    spans.add("sim.build", t0, t_built);
    spans.add("apps.install", t_built, t_installed);
    r.build_s = secondsBetween(t0, t_built);
    r.install_s = secondsBetween(t_built, t_installed);

    if (!setup_only) {
        SimTime t;
        Clock::time_point tw = t_installed;
        uint64_t ev = ps->totalExecutedEvents();
        uint64_t q = ps->quantaExecuted();
        while (!app->result().done && t < kIncastCap) {
            t = t + kIncastWindow;
            step(*ps, eng, t);
            ++r.windows;
            if (spans.on()) {
                const Clock::time_point now = Clock::now();
                const uint64_t ev2 = ps->totalExecutedEvents();
                const uint64_t q2 = ps->quantaExecuted();
                spans.add("fame.window", tw, now, ev2 - ev, q2 - q);
                ev = ev2;
                q = q2;
                tw = now;
            }
        }
        const Clock::time_point t_ran = Clock::now();
        r.run_s = secondsBetween(t_installed, t_ran);
        r.sim_s = t.asSeconds();
        r.load_run_s = r.run_s;
        r.load_sim_s = r.sim_s;
        collect(*cluster, *ps, r);

        const apps::IncastResult &res = app->result();
        r.goodput_mbps = res.goodputMbps();
        r.requests_completed = res.iteration_us.count();
        const uint64_t n = w.servers.size();
        if (!res.done) {
            r.failure = "incast did not finish within " + kIncastCap.str();
        } else if (r.requests_completed != w.ip.iterations ||
                   res.total_bytes != w.ip.iterations * n * w.ip.block_bytes) {
            r.failure = strprintf(
                "incast finished %llu of %u iterations, %llu bytes",
                static_cast<unsigned long long>(r.requests_completed),
                w.ip.iterations,
                static_cast<unsigned long long>(res.total_bytes));
        }

        const Clock::time_point t_fp0 = Clock::now();
        analysis::RunArtifact a;
        a.workload = "incast";
        a.elapsed_us = res.elapsed.asMicros();
        a.goodput_mbps = res.goodputMbps();
        a.requests_completed = res.iteration_us.count();
        a.latencies.emplace_back(
            "iteration_us", analysis::LatencyDigest::of(res.iteration_us));
        auto &g = a.addGroup("app");
        g.counters = {
            {"servers", n},
            {"racks", w.racks},
            {"total_bytes", res.total_bytes},
            {"block_bytes", w.ip.block_bytes},
            {"iterations", w.ip.iterations},
        };
        addCommonArtifact(a, *cluster, *ps);
        r.fingerprint = a.fingerprint();
        spans.add("analysis.fingerprint", t_fp0, Clock::now());
    }

    const Clock::time_point t_td = Clock::now();
    app.reset();
    cluster.reset();
    ps.reset();
    const Clock::time_point t_end = Clock::now();
    spans.add("sim.teardown", t_td, t_end);
    spans.finish(t0, t_end, r.events, r.quanta);
    r.ok = r.failure.empty();
    return r;
}

/**
 * McExperiment::run's client set: every non-server node, or, when
 * num_clients caps it, the servers' round-robin rack spread skipping
 * server slots; ascending either way, so the result fold is
 * deterministic.
 */
std::vector<net::NodeId>
clientNodes(const apps::McExperimentParams &p, uint32_t total,
            const std::vector<net::NodeId> &servers)
{
    std::vector<bool> is_server(total, false);
    for (net::NodeId s : servers) {
        is_server[s] = true;
    }
    std::vector<net::NodeId> out;
    if (p.num_clients == 0) {
        for (net::NodeId n = 0; n < total; ++n) {
            if (!is_server[n]) {
                out.push_back(n);
            }
        }
        return out;
    }
    const uint32_t spr = p.cluster.topo.servers_per_rack;
    const uint32_t racks = total / spr;
    for (uint32_t i = 0; out.size() < p.num_clients; ++i) {
        const net::NodeId n = (i % racks) * spr + i / racks;
        if (!is_server[n]) {
            out.push_back(n);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Run one memcached pass; @p setup_only as in runIncastPass.
 *
 * McExperiment builds the cluster and places the servers, but the pass
 * installs the apps, drives the engine and folds the client results
 * itself, the way McExperiment::run does, with the same 100 ms windows,
 * so the fingerprint is the same.  McExperiment::run panics with a false
 * "deadlock" when one window executes no events while a client waits
 * out a 250 ms UDP retry timer (memcached_2k seed 105, memcached_32k
 * seeds 1, 14 and 23), so this loop only gives up after kMcCap of
 * simulated time.
 */
PassResult
runMcPass(const Workload &w, Engine eng, Tracer *tr, bool setup_only)
{
    PassResult r;
    r.engine = eng;
    r.traced = tr != nullptr;
    PassSpans spans(tr, passName(eng));
    const apps::McExperimentParams &p = w.mc;

    if (!setup_only) {
        resetPeakRss();
    }
    const Clock::time_point t0 = Clock::now();
    auto ps = makeEngine(sim::Cluster::partitionsRequired(p.cluster), eng);
    auto exp = std::make_unique<apps::McExperiment>(*ps, p);
    sim::Cluster &cluster = exp->cluster();
    const Clock::time_point t_built = Clock::now();

    const std::vector<net::NodeId> &servers = exp->serverNodes();
    for (net::NodeId s : servers) {
        apps::installMemcachedServer(cluster, s, p.server);
    }
    std::vector<std::shared_ptr<apps::McClientStats>> clients;
    for (net::NodeId n : clientNodes(p, cluster.size(), servers)) {
        auto st = std::make_shared<apps::McClientStats>();
        if (p.sketch_stats) {
            st->latency_us.enableSketch();
            st->first_request_us.enableSketch();
            for (LatencyStat &h : st->latency_us_by_hop) {
                h.enableSketch();
            }
        }
        clients.push_back(st);
        apps::installMemcachedClient(cluster, n, servers, p.client, st);
    }
    r.rss_after_build_mb = procStatusMb("VmRSS");
    const Clock::time_point t_installed = Clock::now();
    spans.add("sim.build", t0, t_built);
    spans.add("apps.install", t_built, t_installed);
    r.build_s = secondsBetween(t0, t_built);
    r.install_s = secondsBetween(t_built, t_installed);

    if (!setup_only) {
        const auto all_done = [&clients] {
            for (const auto &c : clients) {
                if (!c->done) {
                    return false;
                }
            }
            return true;
        };
        const SimTime start = ps->partition(0).now();
        SimTime until = start;
        Clock::time_point tw = t_installed;
        Clock::time_point t_load_end = t_installed;
        uint64_t ev = ps->totalExecutedEvents();
        uint64_t q = ps->quantaExecuted();
        while (!all_done() && until - start < kMcCap) {
            until = until + kMcWindow;
            step(*ps, eng, until);
            ++r.windows;
            const Clock::time_point now = Clock::now();
            if (r.windows == w.load_windows) {
                t_load_end = now;
            }
            if (spans.on()) {
                const uint64_t ev2 = ps->totalExecutedEvents();
                const uint64_t q2 = ps->quantaExecuted();
                spans.add("fame.window", tw, now, ev2 - ev, q2 - q);
                ev = ev2;
                q = q2;
                tw = now;
            }
        }
        const Clock::time_point t_ran = Clock::now();
        r.run_s = secondsBetween(t_installed, t_ran);

        // The result fold of McExperiment::run, in client order.
        apps::McExperimentResult res;
        if (p.sketch_stats) {
            for (LatencyStat *ls :
                 {&res.latency_us, &res.first_request_us,
                  &res.latency_us_by_hop[0], &res.latency_us_by_hop[1],
                  &res.latency_us_by_hop[2]}) {
                ls->enableSketch();
            }
        }
        res.elapsed = ps->partition(0).now() - start;
        res.clients = static_cast<uint32_t>(clients.size());
        res.servers = static_cast<uint32_t>(servers.size());
        for (const auto &c : clients) {
            res.latency_us.merge(c->latency_us);
            res.first_request_us.merge(c->first_request_us);
            for (int h = 0; h < 3; ++h) {
                res.latency_us_by_hop[h].merge(c->latency_us_by_hop[h]);
            }
            res.udp_timeouts += c->udp_timeouts;
            res.udp_retries += c->udp_retries;
            res.requests_completed += c->requests_completed;
        }
        spans.add("apps.fold", t_ran, Clock::now());

        r.sim_s = res.elapsed.asSeconds();
        // The slowdown is timed over the load phase, the first
        // load_windows windows, while every client is issuing requests.
        // What follows is a tail of UDP retry timeouts whose simulated
        // length varies by seed (lost requests wait up to a second)
        // while it costs little host time.  A run shorter than the load
        // phase is timed whole.
        if (r.windows > w.load_windows) {
            r.load_run_s = secondsBetween(t_installed, t_load_end);
            r.load_sim_s = (kMcWindow * w.load_windows).asSeconds();
        } else {
            r.load_run_s = r.run_s;
            r.load_sim_s = r.sim_s;
        }
        collect(cluster, *ps, r);
        r.requests_completed = res.requests_completed;
        r.udp_retries = res.udp_retries;
        // Complete = every client issued all its requests and each was
        // answered or, after the last UDP retry, given up as lost (a
        // simulated outcome the paper's UDP clients also see).
        const uint64_t want = uint64_t{w.expected_clients} * p.client.requests;
        if (!all_done()) {
            r.failure = "memcached clients not done after " + kMcCap.str();
        } else if (res.clients != w.expected_clients ||
                   res.requests_completed + res.udp_timeouts != want) {
            r.failure = strprintf(
                "memcached finished %llu + %llu lost of %llu requests "
                "(%u clients)",
                static_cast<unsigned long long>(res.requests_completed),
                static_cast<unsigned long long>(res.udp_timeouts),
                static_cast<unsigned long long>(want), res.clients);
        }

        const Clock::time_point t_fp0 = Clock::now();
        analysis::RunArtifact a;
        a.workload = "memcached";
        a.elapsed_us = res.elapsed.asMicros();
        a.requests_completed = res.requests_completed;
        a.latencies.emplace_back(
            "latency_us", analysis::LatencyDigest::of(res.latency_us));
        const char *hops[3] = {"local", "1-hop", "2-hop"};
        for (int h = 0; h < 3; ++h) {
            a.latencies.emplace_back(
                std::string("latency_us.") + hops[h],
                analysis::LatencyDigest::of(res.latency_us_by_hop[h]));
        }
        a.latencies.emplace_back(
            "first_request_us",
            analysis::LatencyDigest::of(res.first_request_us));
        auto &g = a.addGroup("app");
        g.counters = {
            {"servers", res.servers},
            {"clients", res.clients},
            {"udp_retries", res.udp_retries},
            {"udp_lost", res.udp_timeouts},
        };
        addCommonArtifact(a, cluster, *ps);
        r.fingerprint = a.fingerprint();
        spans.add("analysis.fingerprint", t_fp0, Clock::now());
    }

    const Clock::time_point t_td = Clock::now();
    clients.clear();
    exp.reset();
    ps.reset();
    const Clock::time_point t_end = Clock::now();
    spans.add("sim.teardown", t_td, t_end);
    spans.finish(t0, t_end, r.events, r.quanta);
    r.ok = r.failure.empty();
    return r;
}

PassResult
runPass(const Workload &w, Engine eng, Tracer *tr, bool setup_only)
{
    return w.incast ? runIncastPass(w, eng, tr, setup_only)
                    : runMcPass(w, eng, tr, setup_only);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/**
 * Host descriptor fields (CPU shape, build, par2 worker placement),
 * written into the open object of @p w.
 */
void
hostFields(analysis::JsonWriter &w, const std::vector<PassResult> &passes)
{
    const CpuTopology &topo = CpuTopology::host();
    w.field("nproc", static_cast<uint64_t>(topo.cpuCount()));
    w.field("llc_groups", static_cast<uint64_t>(topo.llcGroupCount()));
    w.field("numa_nodes", static_cast<uint64_t>(topo.numaNodeCount()));
    w.field("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
    w.field("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    w.field("compiler", std::string("gcc ") + __VERSION__);
#else
    w.field("compiler", "unknown");
#endif
    for (const PassResult &p : passes) {
        if (p.engine != Engine::Par2) {
            continue;
        }
        w.beginArray("par2_worker_cpus");
        for (int c : p.worker_cpus) {
            w.value(static_cast<int64_t>(c));
        }
        w.endArray();
        w.field("par2_oversubscribed", p.oversubscribed);
        break;
    }
}

/** Write the span log with the host descriptor. */
void
writeTrace(const Tracer &tr, const std::vector<PassResult> &passes,
           const std::string &path)
{
    analysis::JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.field("run_id", tr.runId());
    w.beginObject("host");
    hostFields(w, passes);
    w.endObject();
    w.beginArray("spans");
    for (const Tracer::Span &s : tr.spans()) {
        w.beginObject();
        w.field("run_id", tr.runId());
        w.field("id", s.id);
        w.field("parent", s.parent);
        w.field("name", s.name);
        w.field("start_s", s.start_s);
        w.field("end_s", s.end_s);
        w.field("events", s.events);
        w.field("quanta", s.quanta);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.writeFile(path);
}

/** Metrics in emission order, each with its unit. */
class Metrics {
  public:
    void
    add(const char *name, double value, const char *unit)
    {
        rows_.push_back(Row{name, value, unit});
    }

    void
    print() const
    {
        for (const Row &r : rows_) {
            std::printf("metric %-28s %.9g %s\n", r.name.c_str(), r.value,
                        r.unit.c_str());
        }
    }

    void
    writeJson(analysis::JsonWriter &w) const
    {
        w.beginObject("metrics");
        for (const Row &r : rows_) {
            w.beginObject(r.name);
            w.field("value", r.value);
            w.field("unit", r.unit);
            w.endObject();
        }
        w.endObject();
    }

  private:
    struct Row {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/** Ok passes of one engine, traced or untraced. */
std::vector<const PassResult *>
select(const std::vector<PassResult> &passes, Engine e, bool traced)
{
    std::vector<const PassResult *> out;
    for (const PassResult &p : passes) {
        if (p.ok && p.engine == e && p.traced == traced) {
            out.push_back(&p);
        }
    }
    return out;
}

template <typename F>
double
medianOf(const std::vector<const PassResult *> &ps, F f)
{
    std::vector<double> v;
    for (const PassResult *p : ps) {
        v.push_back(f(*p));
    }
    return median(std::move(v));
}

void
endToEndMetrics(const std::vector<PassResult> &passes,
                const std::vector<double> &setup_samples, Metrics &m)
{
    const auto seq = select(passes, Engine::Seq, false);
    const auto par = select(passes, Engine::Par2, false);
    m.add("setup_s", median(setup_samples), "s");
    m.add("slowdown_seq",
          medianOf(seq, [](const PassResult &p) { return p.slowdown(); }),
          "s/s");
    m.add("slowdown_par2",
          medianOf(par, [](const PassResult &p) { return p.slowdown(); }),
          "s/s");
    m.add("peak_rss_mb",
          medianOf(seq, [](const PassResult &p) { return p.peak_rss_mb; }),
          "MB");
}

void
perLayerMetrics(const std::vector<PassResult> &passes, const Tracer &tr,
                Metrics &m)
{
    const auto seq = select(passes, Engine::Seq, true);
    const auto par = select(passes, Engine::Par2, true);
    const auto seq_plain = select(passes, Engine::Seq, false);
    const PassResult &s = *seq.front(); // counts repeat exactly per pass
    const auto slowdown = [](const PassResult &p) { return p.slowdown(); };
    const auto run_s = [](const PassResult &p) { return p.run_s; };
    const double seq_run = medianOf(seq, run_s);
    const double par_run = medianOf(par, run_s);
    const auto dbl = [](uint64_t v) { return static_cast<double>(v); };

    // core
    m.add("core.events", dbl(s.events), "count");
    m.add("core.events_per_s.seq", dbl(s.events) / seq_run, "1/s");
    m.add("core.events_per_s.par2", dbl(s.events) / par_run, "1/s");

    // fame
    m.add("fame.quanta", dbl(s.quanta), "count");
    m.add("fame.events_per_quantum", dbl(s.events) / dbl(s.quanta),
          "events/quantum");
    m.add("fame.windows", dbl(s.windows), "count");
    m.add("fame.partitions", dbl(s.partitions), "count");
    m.add("fame.partitions_active", dbl(s.partitions_active), "count");
    m.add("fame.event_imbalance", s.event_imbalance, "ratio");
    m.add("fame.ns_per_quantum.seq", seq_run * 1e9 / dbl(s.quanta), "ns");
    m.add("fame.ns_per_quantum.par2", par_run * 1e9 / dbl(s.quanta), "ns");
    for (Engine e : {Engine::Seq, Engine::Par2}) {
        const char *tag = e == Engine::Seq ? "seq" : "par2";
        std::vector<double> ms = tr.durations("fame.window", passName(e));
        for (double &x : ms) {
            x *= 1e3;
        }
        m.add(strprintf("fame.window_ms.p50.%s", tag).c_str(),
              quantile(ms, 0.50), "ms");
        m.add(strprintf("fame.window_ms.p99.%s", tag).c_str(),
              quantile(ms, 0.99), "ms");
        m.add(strprintf("fame.window_samples.%s", tag).c_str(),
              dbl(ms.size()), "count");
    }
    m.add("fame.workers", dbl(par.front()->workers), "count");
    m.add("fame.oversubscribed", par.front()->oversubscribed ? 1.0 : 0.0,
          "flag");
    m.add("fame.par2_speedup",
          medianOf(seq, slowdown) / medianOf(par, slowdown), "ratio");

    // sim + topo
    m.add("sim.build_s", median(tr.durations("sim.build", "pass.seq")), "s");
    m.add("sim.teardown_s", median(tr.durations("sim.teardown", "pass.seq")),
          "s");
    m.add("sim.rss_after_build_mb", s.rss_after_build_mb, "MB");
    m.add("sim.materialized_servers", dbl(s.materialized), "count");
    m.add("sim.arena_mb", s.arena_mb, "MB");

    // apps
    m.add("apps.install_s", median(tr.durations("apps.install", "pass.seq")),
          "s");
    m.add("apps.fold_s", median(tr.durations("apps.fold", "pass.seq")), "s");
    m.add("apps.requests_completed", dbl(s.requests_completed), "count");
    m.add("apps.udp_retries", dbl(s.udp_retries), "count");
    m.add("apps.goodput_mbps", s.goodput_mbps, "Mbps");
    m.add("apps.sim_elapsed_s", s.sim_s, "s");

    // os, switchm, nic
    m.add("os.tcp_retransmits", dbl(s.tcp_retransmits), "count");
    m.add("os.tcp_rtos", dbl(s.tcp_rtos), "count");
    m.add("os.udp_socket_drops", dbl(s.udp_socket_drops), "count");
    m.add("switchm.forwarded", dbl(s.forwarded), "count");
    m.add("switchm.drops", dbl(s.switch_drops), "count");
    m.add("nic.rx_drops", dbl(s.nic_rx_drops), "count");
    m.add("nic.tx_ring_drops", dbl(s.nic_tx_ring_drops), "count");

    // net
    m.add("net.pool_makes", dbl(s.pool_makes), "count");
    m.add("net.pool_heap_allocs", dbl(s.pool_heap_allocs), "count");
    m.add("net.pool_recycle_ratio",
          s.pool_makes != 0 ? dbl(s.pool_recycles) / dbl(s.pool_makes) : 0.0,
          "ratio");
    m.add("net.delivery_trains", dbl(s.delivery_trains), "count");
    m.add("net.deliveries_coalesced", dbl(s.deliveries_coalesced), "count");

    // analysis
    m.add("analysis.fingerprint_s",
          median(tr.durations("analysis.fingerprint", "pass.seq")), "s");

    // trace
    m.add("trace.overhead_ratio",
          medianOf(seq, slowdown) / medianOf(seq_plain, slowdown), "ratio");
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <incast_4rack|memcached_2k|"
                 "memcached_32k> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>] [--smoke]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string trace_out = "perfbench-trace.json";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            return usage(argv[0]);
        }
        const char *v = argv[++i];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            trace = std::strcmp(v, "0") != 0;
        } else if (a == "--trace-out") {
            trace_out = v;
        } else {
            return usage(argv[0]);
        }
    }
    Workload w;
    if (!makeWorkload(workload, seed, smoke, w)) {
        return usage(argv[0]);
    }
#ifndef NDEBUG
    constexpr bool kAsserts = true;
#else
    constexpr bool kAsserts = false;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || kAsserts) {
        std::fprintf(stderr,
                     "perfbench: refusing to report timings from a '%s' "
                     "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    const std::string run_id = strprintf(
        "%s-seed%llu-pid%ld", workload.c_str(),
        static_cast<unsigned long long>(seed), static_cast<long>(getpid()));
    Tracer tracer(run_id);
    std::vector<PassResult> passes;

    // Timed rounds: seq then par2 over the same inputs.  A --trace 1 run
    // alternates untraced and traced rounds so the tracing overhead is
    // measured in the same process.  A round starts only if half of the
    // previous round's time still fits before the deadline, so a run
    // lasts about --seconds even when one round is a large share of it.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    Clock::duration last_round{};
    for (size_t round = 0;
         round < (trace ? 2u : 1u) || Clock::now() + last_round / 2 < deadline;
         ++round) {
        const Clock::time_point round_start = Clock::now();
        const bool traced = trace && round % 2 == 1;
        for (Engine e : {Engine::Seq, Engine::Par2}) {
            passes.push_back(runPass(w, e, traced ? &tracer : nullptr,
                                     /*setup_only=*/false));
        }
        last_round = Clock::now() - round_start;
    }

    // Correctness: every completed pass must match the first completed
    // seq pass's determinism fingerprint.
    uint64_t ref = 0;
    bool have_ref = false;
    for (const PassResult &p : passes) {
        if (p.ok && p.engine == Engine::Seq) {
            ref = p.fingerprint;
            have_ref = true;
            break;
        }
    }
    uint64_t failed = 0;
    for (size_t i = 0; i < passes.size(); ++i) {
        PassResult &p = passes[i];
        if (p.ok && (!have_ref || p.fingerprint != ref)) {
            p.ok = false;
            p.failure = strprintf("fingerprint 0x%016llx != seq 0x%016llx",
                                  static_cast<unsigned long long>(
                                      p.fingerprint),
                                  static_cast<unsigned long long>(ref));
        }
        failed += p.ok ? 0 : 1;
        if (p.ok) {
            std::printf("pass %zu %-4s traced=%d ok fingerprint=0x%016llx "
                        "build=%.4fs install=%.4fs run=%.4fs sim=%.4fs "
                        "load=%.4fs/%.2fs slowdown=%.4f peak_rss=%.1fMB\n",
                        i, p.engine == Engine::Seq ? "seq" : "par2",
                        p.traced ? 1 : 0,
                        static_cast<unsigned long long>(p.fingerprint),
                        p.build_s, p.install_s, p.run_s, p.sim_s,
                        p.load_run_s, p.load_sim_s, p.slowdown(),
                        p.peak_rss_mb);
        } else {
            std::printf("pass %zu %-4s traced=%d FAILED: %s\n", i,
                        p.engine == Engine::Seq ? "seq" : "par2",
                        p.traced ? 1 : 0, p.failure.c_str());
        }
    }

    // Set-up is timed in set-up-only builds into the heap the timed
    // passes left mapped.  A build right after the peak-RSS reset (which
    // returns the heap to the kernel) spends much of its time in
    // first-touch page faults, whose cost on a shared host moved the
    // incast set-up median by half between two sets of runs.
    std::vector<double> setup_samples;
    double setup_total = 0.0;
    while (!trace && (setup_samples.size() < kSetupSamples ||
                      (setup_total < kSetupBudgetS &&
                       setup_samples.size() < kSetupSamplesMax))) {
        setup_samples.push_back(
            runPass(w, Engine::Seq, nullptr, /*setup_only=*/true).setupS());
        setup_total += setup_samples.back();
    }

    analysis::JsonWriter host(/*pretty=*/false);
    host.beginObject();
    hostFields(host, passes);
    host.endObject();
    std::printf("host %s\n", host.str().c_str());
    std::printf("fingerprint %s seed=%llu 0x%016llx\n", workload.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(ref));

    for (bool traced : {false, trace}) {
        if (select(passes, Engine::Seq, traced).empty() ||
            select(passes, Engine::Par2, traced).empty()) {
            std::fprintf(stderr,
                         "perfbench: no %s seq and par2 pass of %s "
                         "completed and checked; no result\n",
                         traced ? "traced" : "untraced", workload.c_str());
            return 1;
        }
    }
    Metrics m;
    if (trace) {
        perLayerMetrics(passes, tracer, m);
        writeTrace(tracer, passes, trace_out);
        std::printf("trace %s\n", trace_out.c_str());
    } else {
        endToEndMetrics(passes, setup_samples, m);
    }
    m.print();

    analysis::JsonWriter out(/*pretty=*/false);
    out.beginObject();
    out.field("correct", failed == 0);
    out.field("attempted", static_cast<uint64_t>(passes.size()));
    out.field("failed", failed);
    m.writeJson(out);
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return 0;
}
