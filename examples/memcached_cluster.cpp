/**
 * @file
 * A one-rack-of-racks memcached deployment: 124 nodes (4 racks x 31
 * servers) running 8 memcached instances with Facebook-ETC-shaped
 * traffic from 116 closed-loop clients — the paper's Figure 7 setup in
 * miniature, with full per-hop latency accounting.
 *
 *   $ ./build/examples/memcached_cluster [udp|tcp] [requests_per_client]
 */

#include <cstdio>
#include <cstring>

#include "apps/mc_experiment.hh"

using namespace diablo;

int
main(int argc, char **argv)
{
    const bool udp = argc > 1 ? std::strcmp(argv[1], "tcp") != 0 : true;
    const uint32_t requests = argc > 2 ? atoi(argv[2]) : 200;

    apps::McExperimentParams p;
    p.cluster = sim::ClusterParams::gige1us();
    p.cluster.topo.servers_per_rack = 31;
    p.cluster.topo.racks_per_array = 4;
    p.cluster.topo.num_arrays = 1;
    p.num_servers = 8;
    p.server.udp = udp;
    p.client.udp = udp;
    p.client.requests = requests;

    fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
    apps::McExperiment exp(ps, p);
    exp.run();
    const apps::McExperimentResult &r = exp.result();

    std::printf("memcached over %s: %u servers, %u clients, %llu "
                "requests completed\n", udp ? "UDP" : "TCP", r.servers,
                r.clients,
                static_cast<unsigned long long>(r.requests_completed));
    std::printf("simulated time: %s\n", r.completion.str().c_str());

    const char *names[3] = {"local ", "1-hop ", "2-hop "};
    for (int h = 0; h < 3; ++h) {
        const SampleSet &s = r.latency_us_by_hop[h];
        if (s.empty()) {
            continue;
        }
        std::printf("%s n=%-7zu p50=%6.1f us  p99=%7.1f us  max=%8.1f "
                    "us\n", names[h], s.count(), s.percentile(50),
                    s.percentile(99), s.max());
    }
    std::printf("overall n=%-7zu p50=%6.1f us  p99=%7.1f us  p99.9=%7.1f "
                "us\n", r.latency_us.count(),
                r.latency_us.percentile(50), r.latency_us.percentile(99),
                r.latency_us.percentile(99.9));
    if (udp) {
        std::printf("UDP retries: %llu, lost after retries: %llu\n",
                    static_cast<unsigned long long>(r.udp_retries),
                    static_cast<unsigned long long>(r.udp_timeouts));
    }

    // Per-server CPU utilization: the paper keeps servers under 50%.
    double max_util = 0;
    for (net::NodeId s : exp.serverNodes()) {
        max_util = std::max(max_util,
                            exp.cluster().kernel(s).cpu().utilization());
    }
    std::printf("busiest memcached server CPU utilization: %.1f%%\n",
                100 * max_util);
    return 0;
}
