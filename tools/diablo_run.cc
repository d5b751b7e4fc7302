/**
 * @file
 * diablo_run: command-line front end for ad-hoc experiments.
 *
 * Runs one of the built-in workloads on a cluster described entirely by
 * key=value overrides (every model parameter is runtime-configurable,
 * like DIABLO's FAME models):
 *
 *   diablo_run memcached topo.num_arrays=2 kernel.version=3.5.7 \
 *              mc.requests=500 mc.udp=false
 *   diablo_run incast incast.servers=16 topo.rack.buffer_per_port_bytes=4096
 *
 * Unknown keys are ignored by the models that do not read them, so the
 * full key set is discoverable from the *Params::fromConfig readers.
 *
 * --fault-plan <file> injects a deterministic fault timeline (see
 * sim::FaultPlan::fromFile for the key=value schema) into the run;
 * fault.<i>.* keys given directly on the command line work too, and
 * when both are present the file's timeline comes first with the
 * command-line events appended (and a command-line fault.seed winning).
 *
 * --engine <seq|par> selects how the rack/switch-partitioned cluster is
 * driven: `seq` (default) with the sequential reference, `par` with the
 * fused parallel engine — both produce bit-identical simulated
 * results.  --threads <N> caps the parallel engine's worker count
 * (0 = one per hardware thread).
 *
 * --json <path> writes the machine-readable run artifact (see
 * analysis::RunArtifact for the schema): everything the text report
 * prints — goodput, latency digests incl. per hop class, datapath /
 * pool / fault / memory counters, engine + quanta stats, the run's
 * determinism fingerprint, and the full key=value configuration.
 * diablo_sweep consumes these artifacts.
 *
 * telemetry.period=<sim-time µs> streams in-run snapshots (goodput,
 * requests completed, p99-so-far, pool ledger, materialized-node
 * deltas) to a JSONL file every period of *simulated* time
 * (telemetry.path overrides the destination, default <json>.telemetry
 * .jsonl).  Sampling only reads model state on the simulated clock, so
 * enabling it never changes simulated results or fingerprints.
 *
 * Unattended operation: SIGINT/SIGTERM finalize a *partial* --json
 * artifact (`"status": "interrupted"`, results-so-far, fingerprint-so-
 * far), flush telemetry, and exit with core::kExitInterrupted (75).
 * run.deadline=<s> caps the run's wall clock and run.stall=<s> trips
 * when the engine makes no progress for that long; either dumps a
 * best-effort engine diagnostic (sim time, per-partition next-event
 * minima, pool ledgers), requests the same cooperative finalize, and
 * hard-exits with core::kExitWatchdog (76) if the run stays wedged past
 * run.grace=<s> (default 5).
 *
 * --mem-report prints the memory-diet ledger after the run: peak RSS,
 * bytes per simulated node, how many nodes were actually materialized
 * (sim.lazy_servers=true defers node construction to first use), and
 * the per-arena slab ledgers.  Paper-scale knobs: mc.clients caps the
 * active client count (0 = every non-server node), stats.sketch=true
 * records latencies into fixed-memory quantile sketches.
 */

#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/incast.hh"
#include "apps/mc_experiment.hh"
#include "analysis/artifact.hh"
#include "analysis/report.hh"
#include "core/cpu_topology.hh"
#include "core/interrupt.hh"
#include "sim/fault.hh"
#include "sim/telemetry.hh"
#include "sim/watchdog.hh"

using namespace diablo;

namespace {

/** Which engine drives the run (see the file comment). */
enum class Engine { Seq, Par };

struct EngineOpts {
    Engine engine = Engine::Seq;
    size_t threads = 0; ///< parallel worker cap; 0 = hardware default
    bool pin = true;    ///< cache-topology-aware worker pinning
    bool mem_report = false;

    bool
    parseEngine(const char *val)
    {
        if (std::strcmp(val, "seq") == 0) {
            engine = Engine::Seq;
        } else if (std::strcmp(val, "par") == 0) {
            engine = Engine::Par;
        } else {
            return false;
        }
        return true;
    }

    const char *name() const { return par() ? "par" : "seq"; }

    bool par() const { return engine == Engine::Par; }
};

/** Everything main() parses besides key=value model overrides. */
struct RunOpts {
    EngineOpts eng;
    const char *plan_file = nullptr;
    const char *json_path = nullptr;
};

/**
 * Build the run's fault plan: the --fault-plan file (when given) comes
 * first, then any fault.<i>.* command-line events are appended, with a
 * command-line fault.seed overriding the file's.  Returns an empty
 * plan when the run is fault-free.
 */
sim::FaultPlan
makeFaultPlan(const Config &cfg, const char *plan_file)
{
    sim::FaultPlan cli = sim::FaultPlan::fromConfig(cfg);
    if (plan_file == nullptr) {
        return cli;
    }
    sim::FaultPlan plan = sim::FaultPlan::fromFile(plan_file);
    plan.merge(cli, /*take_seed=*/cfg.has("fault.seed"));
    return plan;
}

void
installFaults(sim::Cluster &cluster, const sim::FaultPlan &plan,
              std::unique_ptr<sim::FaultController> &fc)
{
    if (plan.empty()) {
        return;
    }
    std::printf("%s", plan.str().c_str());
    fc = std::make_unique<sim::FaultController>(cluster, plan);
    fc->install();
}

void
printFaultOutcome(sim::Cluster &cluster)
{
    topo::ClosNetwork &net = cluster.network();
    std::printf("faults: reroutes=%llu link_down_drops=%llu "
                "link_degrade_drops=%llu tcp_aborts=%llu "
                "tcp_recovered=%llu crash_rx_discards=%llu\n",
                static_cast<unsigned long long>(net.rerouteCount()),
                static_cast<unsigned long long>(
                    net.totalLinkDownDrops()),
                static_cast<unsigned long long>(
                    net.totalLinkDegradeDrops()),
                static_cast<unsigned long long>(cluster.totalTcpAborts()),
                static_cast<unsigned long long>(
                    cluster.totalTcpRecovered()),
                static_cast<unsigned long long>(
                    cluster.totalCrashRxDiscards()));
}

/**
 * Per-partition packet-pool counters plus the datapath batching
 * totals, printed next to the engine's quanta/executed-event figures
 * so a perf regression in one partition's pool is visible at a glance.
 */
void
printDatapathStats(sim::Cluster &cluster)
{
    const auto pools = cluster.poolStats();
    fame::PartitionSet &ps = cluster.partitionSet();
    for (size_t i = 0; i < pools.size(); ++i) {
        const auto &p = pools[i];
        const uint64_t events = ps.partition(i).executedEvents();
        std::printf("  part %zu: events=%llu pool makes=%llu "
                    "recycles=%llu heap=%llu returns=%llu "
                    "high_water=%llu\n",
                    i, static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(p.makes),
                    static_cast<unsigned long long>(p.recycles),
                    static_cast<unsigned long long>(p.heap_allocs),
                    static_cast<unsigned long long>(p.returns),
                    static_cast<unsigned long long>(p.high_water));
    }
    std::printf("datapath: quanta=%llu trains=%llu coalesced=%llu "
                "nic_tx_ring_drops=%llu\n",
                static_cast<unsigned long long>(ps.quantaExecuted()),
                static_cast<unsigned long long>(
                    cluster.totalDeliveryTrains()),
                static_cast<unsigned long long>(
                    cluster.totalDeliveriesCoalesced()),
                static_cast<unsigned long long>(
                    cluster.totalNicTxRingDrops()));
}

uint64_t
peakRssBytes()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

/**
 * The memory-diet ledger: process peak RSS, bytes per simulated node,
 * materialization ratio, and the per-arena slab accounting (one arena
 * per rack partition on a sharded build; empty arenas are summarized).
 */
void
printMemReport(sim::Cluster &cluster)
{
    const uint64_t rss = peakRssBytes();
    const uint32_t nodes = cluster.size();

    std::printf("mem: peak_rss=%.1f MB bytes/node=%.0f nodes/GB=%.0f\n",
                static_cast<double>(rss) / (1024.0 * 1024.0),
                static_cast<double>(rss) / nodes,
                static_cast<double>(nodes) /
                    (static_cast<double>(rss) /
                     (1024.0 * 1024.0 * 1024.0)));
    std::printf("mem: materialized=%zu/%u nodes (%s)\n",
                cluster.materializedServers(), nodes,
                cluster.params().lazy_servers ? "lazy" : "eager");

    const auto arenas = cluster.arenaStats();
    uint64_t used = 0, reserved = 0;
    size_t nonempty = 0;
    for (size_t i = 0; i < arenas.size(); ++i) {
        used += arenas[i].bytes_used;
        reserved += arenas[i].bytes_reserved;
        if (arenas[i].nodes != 0) {
            ++nonempty;
            std::printf("  arena %zu: nodes=%llu used=%llu reserved=%llu\n",
                        i,
                        static_cast<unsigned long long>(arenas[i].nodes),
                        static_cast<unsigned long long>(
                            arenas[i].bytes_used),
                        static_cast<unsigned long long>(
                            arenas[i].bytes_reserved));
        }
    }
    std::printf("mem: arenas=%zu (%zu populated) used=%llu "
                "reserved=%llu bytes\n",
                arenas.size(), nonempty,
                static_cast<unsigned long long>(used),
                static_cast<unsigned long long>(reserved));
}

/** "256KB"-style rendering of a byte count for the incast summary. */
std::string
fmtBytes(uint64_t b)
{
    char buf[32];
    if (b >= 1024 * 1024 && b % (1024 * 1024) == 0) {
        std::snprintf(buf, sizeof(buf), "%lluMB",
                      static_cast<unsigned long long>(b >> 20));
    } else if (b >= 1024 && b % 1024 == 0) {
        std::snprintf(buf, sizeof(buf), "%lluKB",
                      static_cast<unsigned long long>(b >> 10));
    } else {
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(b));
    }
    return buf;
}

/**
 * Construct the telemetry probe when telemetry.period (sim-time µs) is
 * set.  The stream goes to telemetry.path, defaulting to the --json
 * path with a .telemetry.jsonl suffix (or ./telemetry.jsonl when the
 * run has no artifact).
 */
std::unique_ptr<sim::TelemetryProbe>
makeProbe(const Config &cfg, sim::Cluster &cluster, const RunOpts &opts)
{
    const double period_us = cfg.getDouble("telemetry.period", 0.0);
    if (period_us <= 0.0) {
        return nullptr;
    }
    std::string def = opts.json_path != nullptr
                          ? std::string(opts.json_path) +
                                ".telemetry.jsonl"
                          : std::string("telemetry.jsonl");
    return std::make_unique<sim::TelemetryProbe>(
        cluster, SimTime::microseconds(period_us),
        cfg.getString("telemetry.path", def));
}

/**
 * Build the run watchdog when run.deadline / run.stall (wall-clock
 * seconds) are configured.  The diagnostic dump reads engine state
 * best-effort — the run may be wedged mid-quantum, so the values are
 * for post-mortems, not for consumption by tools.  It runs on the
 * watchdog thread while the run goes on, so it must only read: the
 * event queue's nextTime() prunes cancelled entries, and calling it
 * here once corrupted a live heap into a causality panic.
 */
std::unique_ptr<sim::Watchdog>
makeWatchdog(const Config &cfg, sim::Cluster &cluster)
{
    sim::Watchdog::Params wp;
    wp.deadline_s = cfg.getDouble("run.deadline", 0.0);
    wp.stall_s = cfg.getDouble("run.stall", 0.0);
    wp.grace_s = cfg.getDouble("run.grace", 5.0);
    if (!wp.enabled()) {
        return nullptr;
    }
    auto diag = [&cluster](const char *reason) {
        std::fprintf(stderr, "watchdog: engine state at %s trip "
                     "(best effort):\n", reason);
        fame::PartitionSet &ps = cluster.partitionSet();
        std::fprintf(stderr, "  quanta=%llu total_events=%llu\n",
                     static_cast<unsigned long long>(ps.quantaExecuted()),
                     static_cast<unsigned long long>(
                         ps.totalExecutedEvents()));
        for (size_t i = 0; i < ps.size(); ++i) {
            Simulator &p = ps.partition(i);
            std::fprintf(stderr, "  part %zu: now=%s events=%llu\n", i,
                         p.now().str().c_str(),
                         static_cast<unsigned long long>(
                             p.executedEvents()));
        }
        const auto pools = cluster.poolStats();
        for (size_t i = 0; i < pools.size(); ++i) {
            std::fprintf(stderr,
                         "  pool %zu: makes=%llu returns=%llu "
                         "heap=%llu high_water=%llu\n", i,
                         static_cast<unsigned long long>(pools[i].makes),
                         static_cast<unsigned long long>(
                             pools[i].returns),
                         static_cast<unsigned long long>(
                             pools[i].heap_allocs),
                         static_cast<unsigned long long>(
                             pools[i].high_water));
        }
    };
    auto wd = std::make_unique<sim::Watchdog>(wp, std::move(diag));
    wd->arm();
    return wd;
}

void writeArtifact(const analysis::RunArtifact &a, const RunOpts &opts);

/**
 * The run was cut short (signal or watchdog): finalize the partial
 * artifact with status "interrupted" + the cause, flush the telemetry
 * stream, and map the cause to the exit code contract (75 signal, 76
 * watchdog).
 */
int
finalizeInterrupted(analysis::RunArtifact &a, const RunOpts &opts,
                    sim::TelemetryProbe *probe)
{
    a.status = "interrupted";
    a.interrupt_cause = core::interruptCauseName();
    if (probe != nullptr) {
        probe->flush();
    }
    writeArtifact(a, opts);
    std::fprintf(stderr, "run interrupted (%s); partial artifact "
                 "finalized\n", a.interrupt_cause.c_str());
    const int cause = core::interruptCause();
    return cause == core::kCauseWatchdogDeadline ||
                   cause == core::kCauseWatchdogStall
               ? core::kExitWatchdog
               : core::kExitInterrupted;
}

/**
 * Shared artifact sections: engine identity, per-partition event/pool
 * ledgers, the datapath + network counter groups, fault outcome, the
 * memory report, telemetry metadata, and the resolved configuration.
 */
void
fillCommonArtifact(analysis::RunArtifact &a, sim::Cluster &cluster,
                   const Config &cfg, const RunOpts &opts,
                   const sim::FaultPlan &plan,
                   const sim::TelemetryProbe *probe)
{
    a.engine = opts.eng.name();
    a.threads_requested = opts.eng.threads;
    a.nodes = cluster.size();

    fame::PartitionSet &ps = cluster.partitionSet();
    a.partitions = ps.size();
    a.workers = opts.eng.par() ? ps.lastRunWorkers() : 1;
    a.cores = CpuTopology::host().cpuCount();
    if (opts.eng.par()) {
        a.oversubscribed = ps.lastRunOversubscribed();
        a.worker_cpus = ps.lastRunWorkerCpus();
    }
    a.quanta = ps.quantaExecuted();
    a.executed_events = ps.totalExecutedEvents();
    const auto pools = cluster.poolStats();
    for (size_t i = 0; i < pools.size(); ++i) {
        analysis::RunArtifact::PartitionRow row;
        row.events = ps.partition(i).executedEvents();
        row.pool_makes = pools[i].makes;
        row.pool_recycles = pools[i].recycles;
        row.pool_heap_allocs = pools[i].heap_allocs;
        row.pool_returns = pools[i].returns;
        row.pool_high_water = pools[i].high_water;
        a.partition_rows.push_back(row);
    }

    auto &net = a.addGroup("network");
    net.counters = {
        {"switch_drops", cluster.network().totalSwitchDrops()},
        {"forwarded", cluster.network().totalForwarded()},
        {"tcp_retransmits", cluster.totalTcpRetransmits()},
        {"tcp_rtos", cluster.totalTcpRtos()},
        {"udp_socket_drops", cluster.totalUdpSocketDrops()},
        {"nic_rx_drops", cluster.totalNicRxDrops()},
    };
    auto &dp = a.addGroup("datapath");
    dp.counters = {
        {"delivery_trains", cluster.totalDeliveryTrains()},
        {"deliveries_coalesced", cluster.totalDeliveriesCoalesced()},
        {"nic_tx_ring_drops", cluster.totalNicTxRingDrops()},
    };
    if (!plan.empty()) {
        auto &f = a.addGroup("faults");
        f.counters = {
            {"plan_events", plan.size()},
            {"reroutes", cluster.network().rerouteCount()},
            {"link_down_drops", cluster.network().totalLinkDownDrops()},
            {"link_degrade_drops",
             cluster.network().totalLinkDegradeDrops()},
            {"tcp_aborts", cluster.totalTcpAborts()},
            {"tcp_recovered", cluster.totalTcpRecovered()},
            {"crash_rx_discards", cluster.totalCrashRxDiscards()},
        };
    }

    a.has_mem = true;
    a.peak_rss_mb =
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
    a.materialized_nodes = cluster.materializedServers();
    a.lazy_servers = cluster.params().lazy_servers;
    for (const auto &ar : cluster.arenaStats()) {
        a.arena_bytes_used += ar.bytes_used;
        a.arena_bytes_reserved += ar.bytes_reserved;
    }

    if (probe != nullptr) {
        a.telemetry_path = probe->path();
        a.telemetry_period_us = probe->period().asMicros();
        a.telemetry_samples = probe->samplesWritten();
    }

    a.config = cfg;
    a.config.set("resolved.kernel",
                 cluster.params().kernel_profile.name);
}

/** The run's PartitionSet: @p parts partitions, worker cap, pinning. */
std::unique_ptr<fame::PartitionSet>
makeEngine(size_t parts, const EngineOpts &eng)
{
    auto ps = std::make_unique<fame::PartitionSet>(parts);
    ps->setParallelism(eng.threads);
    ps->setWorkerPinning(eng.pin);
    return ps;
}

void
printEngine(const EngineOpts &eng, fame::PartitionSet &ps)
{
    std::printf("engine=%s partitions=%zu workers=%zu\n", eng.name(),
                ps.size(), eng.par() ? ps.lastRunWorkers() : size_t{1});
}

void
writeArtifact(const analysis::RunArtifact &a, const RunOpts &opts)
{
    if (opts.json_path == nullptr) {
        return;
    }
    a.writeJson(opts.json_path);
    std::printf("artifact: %s\n", opts.json_path);
}

int
runMemcached(const Config &cfg, const sim::FaultPlan &plan,
             const RunOpts &opts)
{
    const EngineOpts &eng = opts.eng;
    apps::McExperimentParams p;
    p.cluster = cfg.getDouble("topo.rack.port_gbps", 1.0) > 5
                    ? sim::ClusterParams::tengig100ns()
                    : sim::ClusterParams::gige1us();
    p.cluster.applyConfig(cfg);
    p.num_servers = static_cast<uint32_t>(
        cfg.getUint("mc.servers",
                    2 * p.cluster.topo.racks_per_array *
                        p.cluster.topo.num_arrays));
    p.num_clients = static_cast<uint32_t>(cfg.getUint("mc.clients", 0));
    p.sketch_stats = cfg.getBool("stats.sketch", false);
    p.server.udp = cfg.getBool("mc.udp", true);
    p.server.version = static_cast<int>(cfg.getUint("mc.version", 1417));
    p.server.worker_threads = static_cast<uint32_t>(
        cfg.getUint("mc.workers", 4));
    p.client.udp = p.server.udp;
    p.client.requests = static_cast<uint32_t>(
        cfg.getUint("mc.requests", 200));
    p.client.think_mean = SimTime::microseconds(
        cfg.getDouble("mc.think_us", 1500.0));

    std::unique_ptr<fame::PartitionSet> ps =
        makeEngine(sim::Cluster::partitionsRequired(p.cluster), eng);
    auto exp = std::make_unique<apps::McExperiment>(*ps, p);
    std::unique_ptr<sim::FaultController> fc;
    installFaults(exp->cluster(), plan, fc);
    std::unique_ptr<sim::TelemetryProbe> probe =
        makeProbe(cfg, exp->cluster(), opts);
    if (probe != nullptr) {
        probe->setSampler([&exp](sim::TelemetryProbe::AppStats &s) {
            const auto ls = exp->liveStats();
            s.requests_completed = ls.requests_completed;
            s.p99_us = ls.p99_us;
        });
        exp->attachTelemetry(probe.get());
    }
    std::unique_ptr<sim::Watchdog> wd = makeWatchdog(cfg, exp->cluster());
    exp->setPulse([&ps, wd = wd.get()] {
        if (wd != nullptr) {
            wd->noteProgress(ps->totalExecutedEvents());
        }
        return core::interruptRequested();
    });
    exp->run(eng.par());
    if (wd != nullptr) {
        wd->disarm();
    }
    const auto &r = exp->result();

    std::printf("nodes=%u servers=%u clients=%u proto=%s kernel=%s\n",
                exp->cluster().size(), r.servers, r.clients,
                p.server.udp ? "UDP" : "TCP",
                p.cluster.kernel_profile.name.c_str());
    printEngine(eng, *ps);
    std::printf("completed=%llu in %s (sim), %llu events\n",
                static_cast<unsigned long long>(r.requests_completed),
                r.elapsed.str().c_str(),
                static_cast<unsigned long long>(
                    ps->totalExecutedEvents()));
    std::printf("latency %s\n",
                analysis::latencySummary(r.latency_us).c_str());
    const char *names[3] = {"local", "1-hop", "2-hop"};
    for (int h = 0; h < 3; ++h) {
        if (r.latency_us_by_hop[h].count()) {
            std::printf("  %-5s %s\n", names[h],
                        analysis::latencySummary(
                            r.latency_us_by_hop[h]).c_str());
        }
    }
    std::printf("udp retries=%llu lost=%llu; switch drops=%llu; tcp "
                "rtos=%llu\n",
                static_cast<unsigned long long>(r.udp_retries),
                static_cast<unsigned long long>(r.udp_timeouts),
                static_cast<unsigned long long>(
                    exp->cluster().network().totalSwitchDrops()),
                static_cast<unsigned long long>(
                    exp->cluster().totalTcpRtos()));
    printDatapathStats(exp->cluster());
    if (eng.mem_report) {
        printMemReport(exp->cluster());
    }
    if (!plan.empty()) {
        printFaultOutcome(exp->cluster());
    }

    if (opts.json_path != nullptr || exp->aborted()) {
        analysis::RunArtifact a;
        a.workload = "memcached";
        a.elapsed_us = r.elapsed.asMicros();
        a.requests_completed = r.requests_completed;
        a.latencies.emplace_back(
            "latency_us", analysis::LatencyDigest::of(r.latency_us));
        for (int h = 0; h < 3; ++h) {
            a.latencies.emplace_back(
                std::string("latency_us.") + names[h],
                analysis::LatencyDigest::of(r.latency_us_by_hop[h]));
        }
        a.latencies.emplace_back(
            "first_request_us",
            analysis::LatencyDigest::of(r.first_request_us));
        auto &app = a.addGroup("app");
        app.counters = {
            {"servers", r.servers},
            {"clients", r.clients},
            {"udp_retries", r.udp_retries},
            {"udp_lost", r.udp_timeouts},
        };
        fillCommonArtifact(a, exp->cluster(), cfg, opts, plan,
                           probe.get());
        a.config.set("resolved.proto", p.server.udp ? "UDP" : "TCP");
        if (exp->aborted()) {
            return finalizeInterrupted(a, opts, probe.get());
        }
        writeArtifact(a, opts);
    }
    return 0;
}

int
runIncast(const Config &cfg, const sim::FaultPlan &plan,
          const RunOpts &opts)
{
    const EngineOpts &eng = opts.eng;
    const uint32_t n =
        static_cast<uint32_t>(cfg.getUint("incast.servers", 8));
    // incast.racks spreads the fan-in across racks so the trunk and
    // the sharded engines have cross-partition traffic to chew on;
    // the default keeps the classic single-ToR shape.
    const uint32_t racks =
        static_cast<uint32_t>(cfg.getUint("incast.racks", 1));
    sim::ClusterParams cp = cfg.getDouble("topo.rack.port_gbps", 1.0) > 5
                                ? sim::ClusterParams::tengig100ns()
                                : sim::ClusterParams::gige1us();
    cp.applyConfig(cfg);
    cp.topo.servers_per_rack = (n + 1 + racks - 1) / racks;
    cp.topo.racks_per_array = racks;
    cp.topo.num_arrays = 1;
    apps::IncastParams ip;
    ip.block_bytes = cfg.getUint("incast.block_bytes", 256 * 1024);
    ip.iterations =
        static_cast<uint32_t>(cfg.getUint("incast.iterations", 20));
    ip.use_epoll = cfg.getBool("incast.epoll", false);
    std::vector<net::NodeId> servers;
    for (uint32_t i = 1; i <= n; ++i) {
        servers.push_back(i);
    }

    std::unique_ptr<fame::PartitionSet> ps =
        makeEngine(sim::Cluster::partitionsRequired(cp), eng);
    auto cluster = std::make_unique<sim::Cluster>(*ps, cp);
    apps::IncastApp app(*cluster, ip, 0, servers);
    app.install();
    std::unique_ptr<sim::FaultController> fc;
    installFaults(*cluster, plan, fc);
    std::unique_ptr<sim::TelemetryProbe> probe =
        makeProbe(cfg, *cluster, opts);
    if (probe != nullptr) {
        probe->setSampler(
            [&app, &ip, n](sim::TelemetryProbe::AppStats &s) {
                const apps::IncastResult &r = app.result();
                const uint64_t iters = r.iteration_us.count();
                s.requests_completed = iters;
                s.bytes = iters * ip.block_bytes * n;
                if (iters != 0) {
                    s.p99_us = r.iteration_us.percentile(99);
                }
            });
    }
    std::unique_ptr<sim::Watchdog> wd = makeWatchdog(cfg, *cluster);
    // The PartitionSet runs to a time bound; advance in windows until
    // the client reports completion or no work is pending anywhere (a
    // fault plan crashed a sender for good, or TCP gave up retrying).
    // Telemetry subdivides each window at the sample instants; the
    // outer window sequence is identical with the probe on or off.
    SimTime t;
    auto step = [&](SimTime w) {
        if (eng.par()) {
            ps->runParallel(w);
        } else {
            ps->runSequential(w);
        }
    };
    while (!app.result().done && !ps->idle() &&
           !core::interruptRequested()) {
        t = t + SimTime::ms(250);
        if (probe != nullptr) {
            probe->driveTo(t, step);
        } else {
            step(t);
        }
        if (wd != nullptr) {
            wd->noteProgress(ps->totalExecutedEvents());
        }
    }
    printEngine(eng, *ps);
    if (wd != nullptr) {
        wd->disarm();
    }
    const bool interrupted =
        !app.result().done && core::interruptRequested();
    if (!app.result().done && !interrupted) {
        std::fprintf(stderr, "incast did not complete\n");
        return 1;
    }

    const auto &r = app.result();
    std::printf("incast: %u servers in %u rack%s, %s blocks x %u "
                "iterations (%s client)\n", n, racks,
                racks == 1 ? "" : "s", fmtBytes(ip.block_bytes).c_str(),
                ip.iterations, ip.use_epoll ? "epoll" : "pthread");
    std::printf("goodput=%.1f Mbps; drops=%llu rtos=%llu retx=%llu\n",
                r.goodputMbps(),
                static_cast<unsigned long long>(
                    cluster->network().totalSwitchDrops()),
                static_cast<unsigned long long>(cluster->totalTcpRtos()),
                static_cast<unsigned long long>(
                    cluster->totalTcpRetransmits()));
    std::printf("iteration times (us): %s\n",
                analysis::latencySummary(r.iteration_us).c_str());
    printDatapathStats(*cluster);
    if (eng.mem_report) {
        printMemReport(*cluster);
    }
    if (!plan.empty()) {
        printFaultOutcome(*cluster);
    }

    if (opts.json_path != nullptr || interrupted) {
        analysis::RunArtifact a;
        a.workload = "incast";
        a.elapsed_us = r.elapsed.asMicros();
        a.goodput_mbps = r.goodputMbps();
        a.requests_completed = r.iteration_us.count();
        a.latencies.emplace_back(
            "iteration_us", analysis::LatencyDigest::of(r.iteration_us));
        auto &app_grp = a.addGroup("app");
        app_grp.counters = {
            {"servers", n},
            {"racks", racks},
            {"total_bytes", r.total_bytes},
            {"block_bytes", ip.block_bytes},
            {"iterations", ip.iterations},
        };
        fillCommonArtifact(a, *cluster, cfg, opts, plan, probe.get());
        if (interrupted) {
            return finalizeInterrupted(a, opts, probe.get());
        }
        writeArtifact(a, opts);
    }
    return 0;
}

void
printUsage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <memcached|incast> [--fault-plan <file>] "
                 "[--engine <seq|par>] [--threads <N>] "
                 "[--no-pin] [--json <path>] "
                 "[--mem-report] [key=value ...]\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage(argv[0]);
        return 2;
    }
    Config cfg;
    RunOpts opts;
    EngineOpts &eng = opts.eng;
    // Strict non-negative integer parse shared by the count flags: an
    // unchecked strtoull would silently accept garbage or wraparound.
    auto parseCount = [](const char *flag, const char *v,
                         unsigned long long *out) {
        if (*v == '\0' ||
            std::strspn(v, "0123456789") != std::strlen(v)) {
            std::fprintf(stderr,
                         "%s needs a non-negative integer (got '%s')\n",
                         flag, v);
            std::exit(2);
        }
        errno = 0;
        *out = std::strtoull(v, nullptr, 10);
        if (errno == ERANGE) {
            std::fprintf(stderr, "%s value '%s' is out of range\n", flag,
                         v);
            std::exit(2);
        }
    };
    for (int i = 2; i < argc; ++i) {
        // Each --flag accepts both "--flag value" and "--flag=value".
        auto flagValue = [&](const char *flag) -> const char * {
            const size_t len = std::strlen(flag);
            if (std::strncmp(argv[i], flag, len) != 0) {
                return nullptr;
            }
            if (argv[i][len] == '=') {
                return argv[i] + len + 1;
            }
            if (argv[i][len] == '\0') {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s needs a value\n", flag);
                    std::exit(2);
                }
                return argv[++i];
            }
            return nullptr;
        };
        if (const char *v = flagValue("--fault-plan")) {
            opts.plan_file = v;
            continue;
        }
        if (const char *v = flagValue("--json")) {
            opts.json_path = v;
            continue;
        }
        if (const char *v = flagValue("--engine")) {
            if (!eng.parseEngine(v)) {
                std::fprintf(stderr,
                             "--engine must be seq or par (got '%s')\n",
                             v);
                printUsage(argv[0]);
                return 2;
            }
            continue;
        }
        if (const char *v = flagValue("--threads")) {
            unsigned long long t = 0;
            parseCount("--threads", v, &t);
            eng.threads = static_cast<size_t>(t);
            continue;
        }
        if (std::strcmp(argv[i], "--no-pin") == 0) {
            eng.pin = false;
            continue;
        }
        if (std::strcmp(argv[i], "--mem-report") == 0) {
            eng.mem_report = true;
            continue;
        }
        if (!cfg.parseAssignment(argv[i])) {
            std::fprintf(stderr, "not a key=value assignment: '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    const sim::FaultPlan plan = makeFaultPlan(cfg, opts.plan_file);
    // Install before any simulation work so even an immediate SIGTERM
    // takes the finalize-partial-artifact path rather than killing the
    // process artifact-less.
    core::installInterruptHandlers();
    if (std::strcmp(argv[1], "memcached") == 0) {
        return runMemcached(cfg, plan, opts);
    }
    if (std::strcmp(argv[1], "incast") == 0) {
        return runIncast(cfg, plan, opts);
    }
    std::fprintf(stderr, "unknown experiment '%s'\n", argv[1]);
    return 2;
}
