/**
 * @file
 * Figure 11: "95th-100th percentile CDF of client latency at different
 * scales on a 1 Gbps interconnect running UDP" — 500 / 1000 / 2000
 * nodes.
 *
 * Shape target: the tail worsens dramatically with scale; the paper
 * reports the 99th percentile of the 2000-node system is more than an
 * order of magnitude worse than the 500-node system, matching Google's
 * tail-at-scale observations.
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

int
main()
{
    banner("Figure 11: latency tail vs system scale (1 Gbps, UDP)",
           "Fig. 11 - 95th-100th pct CDF at 500/1000/2000 nodes");

    const std::vector<uint32_t> scales = {496, 992, 1984};
    Table t({"nodes", "p95 (us)", "p99 (us)", "p99.9 (us)", "max (us)"});
    std::vector<double> p99s;

    for (uint32_t nodes : scales) {
        apps::McExperimentParams p = mcConfig(nodes, true, false);
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::McExperiment exp(ps, p);
        exp.run();
        const SampleSet &lat = exp.result().latency_us;

        t.addRow({Table::cell("%u", nodes),
                  Table::cell("%.0f", lat.percentile(95)),
                  Table::cell("%.0f", lat.percentile(99)),
                  Table::cell("%.0f", lat.percentile(99.9)),
                  Table::cell("%.0f", lat.max())});
        p99s.push_back(lat.percentile(99));

        analysis::printCdf(Table::cell("%u-node tail (p95+)", nodes),
                           lat.tailCdf(95.0), 14);
    }
    t.print();

    std::printf("\n99th percentile growth 500 -> 2000 nodes: %.1fx "
                "(paper: more than an order of magnitude; the extra "
                "aggregation level\nis the driver)\n",
                p99s.back() / p99s.front());
    return 0;
}
