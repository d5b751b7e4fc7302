/**
 * @file
 * Figure 14: "Impact of OS kernel versions on the 2,000-node system" —
 * Linux 2.6.39.3 vs 3.5.7 with the same 10 Gbps interconnect and server
 * hardware.
 *
 * Shape targets (paper SS4.2): significant responsiveness improvements
 * on 3.5.7 — average request latency almost halved — and a softer tail
 * thanks to the better scheduler and more efficient networking stack.
 * "OS optimizations play a critical role in the performance of
 * distributed applications."
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

int
main()
{
    banner("Figure 14: kernel version impact at 2000 nodes (10 Gbps)",
           "Fig. 14 - Linux 2.6.39.3 vs 3.5.7, 95th+ pct CDF");

    Table t({"kernel", "mean (us)", "p50", "p95", "p99", "p99.9 (us)"});
    double means[2];
    int i = 0;

    for (const char *kver : {"2.6.39.3", "3.5.7"}) {
        apps::McExperimentParams p = mcConfig(1984, true, true);
        p.cluster.kernel_profile = os::KernelProfile::byName(kver);
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::McExperiment exp(ps, p);
        exp.run();
        const SampleSet &lat = exp.result().latency_us;
        t.addRow({kver, Table::cell("%.1f", lat.mean()),
                  Table::cell("%.1f", lat.percentile(50)),
                  Table::cell("%.1f", lat.percentile(95)),
                  Table::cell("%.1f", lat.percentile(99)),
                  Table::cell("%.1f", lat.percentile(99.9))});
        means[i++] = lat.mean();
        analysis::printCdf(Table::cell("%s tail (p95+)", kver),
                           lat.tailCdf(95.0), 12);
    }
    t.print();

    std::printf("\naverage latency ratio 2.6.39.3 / 3.5.7 = %.2fx "
                "(paper: \"the average\nrequest latency is almost "
                "halved\" on the newer kernel)\n", means[0] / means[1]);
    return 0;
}
