/**
 * @file
 * TCP Incast demo: watch application-level throughput collapse as the
 * number of synchronized senders grows past what a shallow-buffered
 * switch can absorb — and see exactly why, from the simulator's
 * instrumentation (drops, retransmissions, RTO events).
 *
 *   $ ./build/examples/incast_demo [max_servers] [buffer_bytes]
 */

#include <cstdio>
#include <cstdlib>

#include "apps/incast.hh"

using namespace diablo;

int
main(int argc, char **argv)
{
    const uint32_t max_servers = argc > 1 ? atoi(argv[1]) : 16;
    const uint64_t buffer = argc > 2 ? atoll(argv[2]) : 4096;

    std::printf("TCP Incast: 256 KB blocks from N servers to 1 client "
                "through a 1 Gbps\nToR switch with %llu-byte per-port "
                "buffers.\n\n",
                static_cast<unsigned long long>(buffer));
    std::printf("%8s %14s %10s %8s %12s %14s\n", "servers",
                "goodput Mbps", "drops", "RTOs", "retransmits",
                "worst iter ms");

    for (uint32_t n = 1; n <= max_servers; n *= 2) {
        sim::ClusterParams cp = sim::ClusterParams::gige1us();
        cp.topo.servers_per_rack = n + 1;
        cp.topo.racks_per_array = 1;
        cp.topo.num_arrays = 1;
        cp.topo.rack_sw.buffer_per_port_bytes = buffer;
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(cp));
        sim::Cluster cluster(ps, cp);

        apps::IncastParams ip;
        ip.iterations = 10;
        std::vector<net::NodeId> servers;
        for (uint32_t i = 1; i <= n; ++i) {
            servers.push_back(i);
        }
        apps::IncastApp app(cluster, ip, 0, servers);
        app.install();
        ps.runSequential(SimTime::max());

        const apps::IncastResult &r = app.result();
        std::printf("%8u %14.1f %10llu %8llu %12llu %14.1f\n", n,
                    r.goodputMbps(),
                    static_cast<unsigned long long>(
                        cluster.network().totalSwitchDrops()),
                    static_cast<unsigned long long>(
                        cluster.totalTcpRtos()),
                    static_cast<unsigned long long>(
                        cluster.totalTcpRetransmits()),
                    r.iteration_us.max() / 1000.0);
    }

    std::printf(
        "\nWhat to look for: once the synchronized responses overflow "
        "the per-port\nbuffer, block tails are lost whole, fast "
        "retransmit has no duplicate ACKs\nto work with, and every "
        "recovery waits out TCP's 200 ms minimum RTO — the\nclassic "
        "incast throughput collapse (paper SS4.1).  Re-run with a "
        "deeper\nbuffer (e.g. 65536) to watch the collapse point move "
        "out.\n");
    return 0;
}
