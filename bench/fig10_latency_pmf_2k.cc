/**
 * @file
 * Figure 10: "PMF of client request latency at 2000-node on DIABLO using
 * UDP" — probability mass over log-spaced latency bins, classified by
 * the number of physical switch levels a request traverses (local /
 * 1-hop / 2-hop), for both the 1 Gbps and 10 Gbps interconnects.
 *
 * Shape targets: the majority of requests finish in under ~100 us; a
 * small number finish more than two orders of magnitude slower; hop
 * count increases latency variation; 2-hop requests dominate the
 * overall distribution at this scale.
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;

int
main()
{
    banner("Figure 10: 2000-node UDP client latency PMF by hop count",
           "Fig. 10 - PMF over log bins, 1 Gbps vs 10 Gbps");

    for (bool tengig : {false, true}) {
        apps::McExperimentParams p = mcConfig(1984, true, tengig);
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::McExperiment exp(ps, p);
        exp.run();
        const auto &r = exp.result();

        std::printf("\n=== %s interconnect ===\n",
                    tengig ? "10 Gbps / 100 ns" : "1 Gbps / 1 us");
        const char *names[3] = {"local", "1-hop", "2-hop"};
        for (int h = 0; h < 3; ++h) {
            const SampleSet &s = r.latency_us_by_hop[h];
            std::printf("%-6s %s\n", names[h],
                        analysis::latencySummary(s).c_str());
        }
        std::printf("overall %s\n",
                    analysis::latencySummary(r.latency_us).c_str());
        analysis::printPmf("overall latency (us), log bins",
                           r.latency_us.logPmf(4));

        const double share_2hop =
            static_cast<double>(r.latency_us_by_hop[2].count()) /
            static_cast<double>(r.latency_us.count());
        std::printf("2-hop share of all requests: %.0f%%  (paper: 2-hop "
                    "dominates at scale)\n", 100.0 * share_2hop);
        const double under100 =
            static_cast<double>(std::count_if(
                r.latency_us.raw().begin(), r.latency_us.raw().end(),
                [](double v) { return v < 100.0; })) /
            static_cast<double>(r.latency_us.count());
        std::printf("fraction under 100 us: %.0f%%  (paper: the "
                    "majority)\n", 100.0 * under100);
    }
    return 0;
}
