/**
 * @file
 * Ablation: multi-core server timing model — the extension the paper
 * lists as planned for DIABLO-2 ("we have only simulated fixed-CPI
 * single-CPU servers ... A more complex timing model supporting
 * multi-core CPUs is planned", §5).
 *
 * Saturates two memcached servers in one rack with think-time-free
 * clients and sweeps the server core count: per-server throughput
 * scales with cores until the workers run out of parallelism, and the
 * saturated mean latency falls correspondingly.
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

int
main()
{
    banner("Ablation: multi-core servers (the DIABLO-2 extension)",
           "SS5 future work - multi-core fixed-CPI timing model");

    Table t({"server cores", "per-server throughput (k req/s)",
             "mean latency (us)", "busiest-core util"});

    for (uint32_t cores : {1u, 2u, 4u}) {
        apps::McExperimentParams p;
        p.cluster = sim::ClusterParams::gige1us();
        p.cluster.topo.servers_per_rack = 16;
        p.cluster.topo.racks_per_array = 1;
        p.cluster.topo.num_arrays = 1;
        p.cluster.cpu.cores = cores;
        p.num_servers = 2;
        p.server.udp = true;
        p.server.worker_threads = 4;
        // Heavier per-request service so the CPU is the bottleneck.
        p.server.request_base_cycles = 60000;
        p.client.udp = true;
        p.client.requests = requestsPerClient();
        p.client.think_mean = SimTime(); // closed-loop saturation
        p.client.start_window = SimTime::ms(1);

        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::McExperiment exp(ps, p);
        exp.run();
        const auto &r = exp.result();

        // Busy share of the run until the last client finished.
        double util = 0;
        for (net::NodeId s : exp.serverNodes()) {
            const os::Cpu &cpu = exp.cluster().kernel(s).cpu();
            util = std::max(util, cpu.totalBusyTime().asSeconds() /
                                      (r.completion.asSeconds() *
                                       static_cast<double>(cpu.cores())));
        }
        t.addRow({Table::cell("%u", cores),
                  Table::cell("%.1f",
                              static_cast<double>(r.requests_completed) /
                                  r.completion.asSeconds() / 1000.0 /
                                  2.0),
                  Table::cell("%.1f", r.latency_us.mean()),
                  Table::cell("%.0f%%", 100 * util)});
    }
    t.print();

    std::printf("\nWith 4 libevent-style workers per memcached server, "
                "throughput scales\nwith cores while latency under "
                "saturation falls — the measurement DIABLO-2's\nmulti-"
                "core timing model was planned to enable.\n");
    return 0;
}
