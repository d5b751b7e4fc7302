/**
 * @file
 * Quickstart: build a tiny simulated WSC array, run a UDP ping-pong
 * application on two servers in different racks, and read out latency
 * and switch statistics.
 *
 *   $ ./build/examples/quickstart
 *
 * This walks through the complete public API surface:
 *   1. describe the cluster (topology + CPU + kernel + NIC parameters);
 *   2. instantiate it on a fame::PartitionSet;
 *   3. write application logic as coroutines over the syscall API;
 *   4. run and inspect statistics.
 */

#include <algorithm>
#include <cstdio>

#include "sim/cluster.hh"

using namespace diablo;
using namespace diablo::time_literals;

namespace {

struct PingStats {
    int rounds = 0;
    SampleSet rtt_us;
};

/// The server: bind a UDP socket and echo datagrams back, forever.
Task<>
echoServer(os::Kernel &k)
{
    os::Thread &t = k.createThread("echo-server");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    co_await k.sysBind(t, static_cast<int>(fd), 7777);
    while (true) {
        os::RecvedMessage m;
        long n = co_await k.sysRecvFrom(t, static_cast<int>(fd), &m);
        if (n < 0) {
            co_return;
        }
        // A little application work per request: 2000 instructions on
        // the fixed-CPI core.
        co_await t.compute(2000);
        co_await k.sysSendTo(t, static_cast<int>(fd), m.from, m.from_port,
                             static_cast<uint64_t>(n), nullptr);
    }
}

/// The client: 100 request/response rounds of 512 bytes each.
Task<>
pingClient(os::Kernel &k, net::NodeId server, PingStats &stats)
{
    os::Thread &t = k.createThread("ping-client");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    for (int i = 0; i < 100; ++i) {
        const SimTime start = k.sim().now();
        co_await k.sysSendTo(t, static_cast<int>(fd), server, 7777, 512,
                             nullptr);
        os::RecvedMessage m;
        long n = co_await k.sysRecvFrom(t, static_cast<int>(fd), &m,
                                        100_ms);
        if (n > 0) {
            stats.rtt_us.record((k.sim().now() - start).asMicros());
            ++stats.rounds;
        }
    }
}

} // namespace

int
main()
{
    // 1. Describe the target system: two racks of four servers behind
    //    1 Gbps ToR switches and one array switch, 4 GHz fixed-CPI
    //    cores running the Linux 2.6.39.3 kernel profile.
    sim::ClusterParams params = sim::ClusterParams::gige1us();
    params.topo.servers_per_rack = 4;
    params.topo.racks_per_array = 2;
    params.topo.num_arrays = 1;
    params.cpu.freq_ghz = 4.0;

    // 2. Instantiate: one event-queue partition per rack plus one for
    //    the array switch (the paper's Rack-/Switch-FPGA split).
    fame::PartitionSet ps(sim::Cluster::partitionsRequired(params));
    sim::Cluster cluster(ps, params);
    std::printf("built a %u-node cluster: %zu rack switches, %zu array "
                "switches\n", cluster.size(),
                cluster.network().numRackSwitches(),
                cluster.network().numArraySwitches());

    // 3. Install applications: server on node 7 (rack 1), client on
    //    node 0 (rack 0) — a cross-rack (1-hop) path.
    PingStats stats;
    cluster.kernel(7).spawnProcess(echoServer(cluster.kernel(7)));
    cluster.kernel(0).spawnProcess(pingClient(cluster.kernel(0), 7,
                                              stats));

    // 4. Run to completion (idle quanta are skipped, so the run ends
    //    once no event is pending) and inspect.
    ps.runSequential(SimTime::max());
    SimTime end;
    for (size_t i = 0; i < ps.size(); ++i) {
        end = std::max(end, ps.partition(i).now());
    }

    std::printf("completed %d ping-pong rounds\n", stats.rounds);
    std::printf("RTT: min %.1f us, median %.1f us, p99 %.1f us\n",
                stats.rtt_us.min(), stats.rtt_us.percentile(50),
                stats.rtt_us.percentile(99));
    std::printf("hop class 0 -> 7: %s\n",
                topo::hopClassName(cluster.network().hopClass(0, 7)));
    std::printf("simulated time: %s, events executed: %llu\n",
                end.str().c_str(),
                static_cast<unsigned long long>(
                    ps.totalExecutedEvents()));
    std::printf("array switch forwarded %llu packets, dropped %llu\n",
                static_cast<unsigned long long>(
                    cluster.network().arraySwitch(0).stats()
                        .forwarded_pkts),
                static_cast<unsigned long long>(
                    cluster.network().arraySwitch(0).stats()
                        .dropped_pkts));
    return 0;
}
