#include <gtest/gtest.h>

#include "apps/incast.hh"

namespace diablo {
namespace apps {
namespace {

using namespace diablo::time_literals;

sim::ClusterParams
rackCluster(uint32_t servers_per_rack)
{
    sim::ClusterParams p = sim::ClusterParams::gige1us();
    p.topo.servers_per_rack = servers_per_rack;
    p.topo.racks_per_array = 1;
    p.topo.num_arrays = 1;
    return p;
}

IncastResult
runIncast(uint32_t num_servers, bool use_epoll, uint64_t block_bytes,
          uint32_t iterations, uint64_t buffer_bytes = 4096)
{
    sim::ClusterParams cp = rackCluster(num_servers + 1);
    cp.topo.rack_sw.buffer_per_port_bytes = buffer_bytes;
    fame::PartitionSet ps(sim::Cluster::partitionsRequired(cp));
    sim::Cluster cluster(ps, cp);

    IncastParams ip;
    ip.block_bytes = block_bytes;
    ip.iterations = iterations;
    ip.use_epoll = use_epoll;
    std::vector<net::NodeId> servers;
    for (uint32_t i = 1; i <= num_servers; ++i) {
        servers.push_back(i);
    }
    IncastApp app(cluster, ip, 0, servers);
    app.install();
    ps.runSequential(SimTime::max());
    EXPECT_TRUE(app.result().done);
    return app.result();
}

TEST(Incast, SingleServerNearLineRate)
{
    IncastResult r = runIncast(1, false, 262144, 5);
    // One sender, no congestion: goodput close to 1 Gbps line rate.
    EXPECT_GT(r.goodputMbps(), 600.0);
    EXPECT_LT(r.goodputMbps(), 1000.0);
}

TEST(Incast, ThroughputCollapseWithManySenders)
{
    IncastResult one = runIncast(1, false, 262144, 5);
    IncastResult many = runIncast(8, false, 262144, 5);
    // Classic incast through shallow 4 KB VOQ partitions: concurrent
    // senders collapse to a tiny fraction of the single-sender goodput
    // (the paper's model collapses faster than shared-buffer hardware).
    EXPECT_GT(one.goodputMbps(), 600.0);
    EXPECT_LT(many.goodputMbps(), one.goodputMbps() / 10.0);
    // Collapse is RTO-driven: retransmission timeouts must have fired.
    EXPECT_GT(many.iteration_us.max(), 150000.0); // >= one RTO stall
}

TEST(Incast, DeepBuffersAvoidCollapse)
{
    IncastResult shallow = runIncast(12, false, 262144, 3, 4096);
    IncastResult deep = runIncast(12, false, 262144, 3, 1 << 20);
    EXPECT_GT(deep.goodputMbps(), 2.0 * shallow.goodputMbps());
    EXPECT_GT(deep.goodputMbps(), 500.0);
}

TEST(Incast, EpollClientCompletes)
{
    // Deep buffers so this checks the epoll client logic, not collapse.
    IncastResult r = runIncast(4, true, 65536, 3, 1 << 20);
    EXPECT_TRUE(r.done);
    EXPECT_EQ(r.total_bytes, 4u * 65536u * 3u);
    EXPECT_EQ(r.iteration_us.count(), 3u);
    EXPECT_GT(r.goodputMbps(), 300.0);
}

TEST(Incast, IterationTimesRecorded)
{
    IncastResult r = runIncast(2, false, 65536, 4);
    EXPECT_EQ(r.iteration_us.count(), 4u);
    EXPECT_GT(r.iteration_us.min(), 0.0);
}

TEST(Incast, Deterministic)
{
    IncastResult a = runIncast(6, false, 131072, 3);
    IncastResult b = runIncast(6, false, 131072, 3);
    EXPECT_DOUBLE_EQ(a.goodputMbps(), b.goodputMbps());
    EXPECT_EQ(a.elapsed, b.elapsed);
}

} // namespace
} // namespace apps
} // namespace diablo
