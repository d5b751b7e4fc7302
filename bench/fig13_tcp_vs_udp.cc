/**
 * @file
 * Figure 13: "Comparing TCP vs UDP on CDFs of client request latency at
 * different scale with different interconnect" — {500, 1000, 2000}
 * nodes x {1 Gbps, 10 Gbps} x {TCP, UDP}.
 *
 * Shape targets (paper SS4.2): at 500 nodes on 1 Gbps, UDP is the clear
 * winner; the advantage disappears by 1000 nodes and the conclusion is
 * completely reversed at 2000 nodes (TCP's transport-level recovery
 * beats the client's 250 ms UDP retry once congestion losses appear at
 * the aggregation layers); on the 10 Gbps interconnect there is much
 * less difference between the protocols.
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

int
main()
{
    banner("Figure 13: TCP vs UDP latency CDFs across scales",
           "Fig. 13(a)-(f) - 500/1000/2000 nodes x 1G/10G");

    Table t({"config", "proto", "p50", "p97", "p99", "p99.9", "max (us)",
             "udp retries"});

    for (bool tengig : {false, true}) {
        for (uint32_t nodes : {496u, 992u, 1984u}) {
            SampleSet tails[2];
            for (bool udp : {true, false}) {
                apps::McExperimentParams p = mcConfig(nodes, udp, tengig);
                fame::PartitionSet ps(
                    sim::Cluster::partitionsRequired(p.cluster));
                apps::McExperiment exp(ps, p);
                exp.run();
                const auto &r = exp.result();
                t.addRow({Table::cell("%u-node %s", nodes,
                                      tengig ? "10G" : "1G"),
                          udp ? "UDP" : "TCP",
                          Table::cell("%.0f", r.latency_us.percentile(50)),
                          Table::cell("%.0f", r.latency_us.percentile(97)),
                          Table::cell("%.0f", r.latency_us.percentile(99)),
                          Table::cell("%.0f",
                                      r.latency_us.percentile(99.9)),
                          Table::cell("%.0f", r.latency_us.max()),
                          Table::cell("%llu",
                                      static_cast<unsigned long long>(
                                          r.udp_retries))});
                tails[udp ? 0 : 1] = r.latency_us;
            }
            std::printf("\n--- %u nodes, %s: 97th+ percentile tails ---\n",
                        nodes, tengig ? "10 Gbps" : "1 Gbps");
            analysis::printCdf("UDP", tails[0].tailCdf(97.0), 10);
            analysis::printCdf("TCP", tails[1].tailCdf(97.0), 10);
        }
    }
    t.print();

    std::printf(
        "\nshape targets: UDP wins at 500-node/1G (lower per-request "
        "overhead, no\nlosses); at 2000-node/1G the far tail reverses "
        "(UDP's 250 ms client retry\nvs TCP's 200 ms min-RTO transport "
        "recovery); at 10G both protocols are\nnear-identical.\n");
    return 0;
}
