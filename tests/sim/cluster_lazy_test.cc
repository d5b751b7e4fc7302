#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/mc_experiment.hh"
#include "sim/cluster.hh"

namespace diablo {
namespace sim {
namespace {

using namespace diablo::time_literals;

ClusterParams
fourRackParams(bool lazy)
{
    ClusterParams p = ClusterParams::gige1us();
    p.topo.servers_per_rack = 4;
    p.topo.racks_per_array = 4;
    p.topo.num_arrays = 1;
    p.lazy_servers = lazy;
    return p;
}

TEST(ClusterLazy, IdleNodesAreNotMaterialized)
{
    const ClusterParams params = fourRackParams(/*lazy=*/true);
    fame::PartitionSet ps(Cluster::partitionsRequired(params));
    Cluster cluster(ps, params);
    EXPECT_EQ(cluster.size(), 16u);
    EXPECT_EQ(cluster.materializedServers(), 0u);

    // First app attach (any accessor touch) materializes exactly that
    // node; repeat touches are idempotent.
    cluster.kernel(3);
    EXPECT_EQ(cluster.materializedServers(), 1u);
    cluster.nic(3);
    cluster.uplink(3);
    EXPECT_EQ(cluster.materializedServers(), 1u);
    cluster.kernel(11);
    EXPECT_EQ(cluster.materializedServers(), 2u);

    std::vector<Cluster::ArenaStats> st = cluster.arenaStats();
    EXPECT_GT(st[0].bytes_used, 0u);
    EXPECT_GE(st[0].bytes_reserved, st[0].bytes_used);
}

TEST(ClusterLazy, EagerBuildMaterializesEverything)
{
    const ClusterParams params = fourRackParams(/*lazy=*/false);
    fame::PartitionSet ps(Cluster::partitionsRequired(params));
    Cluster cluster(ps, params);
    EXPECT_EQ(cluster.materializedServers(), cluster.size());
}

/**
 * Deterministic digest of a memcached run's observable results:
 * app-level latency stats (as sketch fingerprints chained in client
 * fold order), protocol counters, and engine event counts.
 */
std::vector<uint64_t>
mcFingerprint(apps::McExperiment &exp, fame::PartitionSet &ps)
{
    const apps::McExperimentResult &r = exp.result();
    std::vector<uint64_t> fp;
    fp.push_back(r.requests_completed);
    fp.push_back(r.udp_timeouts);
    fp.push_back(r.udp_retries);
    fp.push_back(static_cast<uint64_t>(r.elapsed.toPs()));
    fp.push_back(r.latency_us.fingerprint());
    fp.push_back(r.first_request_us.fingerprint());
    for (int h = 0; h < 3; ++h) {
        fp.push_back(r.latency_us_by_hop[h].fingerprint());
    }
    sim::Cluster &c = exp.cluster();
    fp.push_back(c.totalTcpRetransmits());
    fp.push_back(c.totalUdpSocketDrops());
    fp.push_back(c.totalNicRxDrops());
    fp.push_back(c.network().totalSwitchDrops());
    fp.push_back(c.network().totalForwarded());
    // materializedServers() is deliberately NOT part of the digest:
    // it differs between lazy and eager by design, while everything
    // observable about the simulation must not.
    for (size_t i = 0; i < ps.size(); ++i) {
        fp.push_back(ps.partition(i).executedEvents());
    }
    return fp;
}

std::vector<uint64_t>
runShardedMc(bool lazy, bool parallel, bool sketch)
{
    apps::McExperimentParams mp;
    mp.cluster = fourRackParams(lazy);
    mp.num_servers = 4;
    mp.num_clients = 4; // leaves 8 idle nodes for the lazy diet
    mp.sketch_stats = sketch;
    mp.server.udp = true;
    mp.client.udp = true;
    mp.client.requests = 40;

    fame::PartitionSet ps(Cluster::partitionsRequired(mp.cluster));
    apps::McExperiment exp(ps, mp);
    exp.run(parallel);
    std::vector<uint64_t> fp = mcFingerprint(exp, ps);

    if (lazy) {
        // 4 servers + 4 clients active; the other 8 nodes never see a
        // request addressed to them, so they must stay unmaterialized.
        EXPECT_EQ(exp.cluster().materializedServers(), 8u);
    } else {
        EXPECT_EQ(exp.cluster().materializedServers(), 16u);
    }
    return fp;
}

TEST(ClusterLazy, LazyEagerSeqParAllBitIdentical)
{
    // The memory diet must be invisible in the results: lazy vs eager,
    // sequential vs parallel — every combination produces bit-identical
    // statistics (including the sketch fingerprints, which pin the
    // full latency distribution, not just scalar counters).
    std::vector<uint64_t> base =
        runShardedMc(/*lazy=*/true, /*parallel=*/false, /*sketch=*/true);
    EXPECT_EQ(base, runShardedMc(true, true, true));
    EXPECT_EQ(base, runShardedMc(false, false, true));
    EXPECT_EQ(base, runShardedMc(false, true, true));
}

TEST(ClusterLazy, ShardedArenasArePerRack)
{
    ClusterParams params = fourRackParams(/*lazy=*/true);
    fame::PartitionSet ps(Cluster::partitionsRequired(params));
    Cluster cluster(ps, params);

    std::vector<Cluster::ArenaStats> st = cluster.arenaStats();
    ASSERT_EQ(st.size(), 4u); // one arena per rack partition
    for (const Cluster::ArenaStats &a : st) {
        EXPECT_EQ(a.nodes, 0u);
    }

    cluster.kernel(0);  // rack 0
    cluster.kernel(1);  // rack 0
    cluster.kernel(15); // rack 3
    st = cluster.arenaStats();
    EXPECT_EQ(st[0].nodes, 2u);
    EXPECT_EQ(st[1].nodes, 0u);
    EXPECT_EQ(st[2].nodes, 0u);
    EXPECT_EQ(st[3].nodes, 1u);
}

TEST(ClusterLazy, FirstDeliveredPacketMaterializes)
{
    // A packet addressed to a never-touched node must materialize it
    // from inside the ToR's forwarding path (the unattached-port hook)
    // and be delivered to the fresh NIC rather than dropped — also
    // mid-run on the parallel engine, where the hook fires inside the
    // destination rack's partition and bump-allocates from that
    // rack's own arena.
    for (bool parallel : {false, true}) {
        ClusterParams params = fourRackParams(/*lazy=*/true);
        fame::PartitionSet ps(Cluster::partitionsRequired(params));
        Cluster cluster(ps, params);

        const net::NodeId src = 0, dst = 13; // rack 0 -> rack 3
        auto sender = [](os::Kernel &k, net::NodeId to) -> Task<> {
            os::Thread &t = k.createThread("tx");
            long fd = co_await k.sysSocket(t, net::Proto::Udp);
            co_await k.sysSendTo(t, static_cast<int>(fd), to, 9, 64,
                                 nullptr);
        };
        cluster.kernel(src).spawnProcess(
            sender(cluster.kernel(src), dst));
        EXPECT_EQ(cluster.materializedServers(), 1u);

        if (parallel) {
            ps.runParallel(10_ms);
        } else {
            ps.runSequential(10_ms);
        }

        EXPECT_EQ(cluster.materializedServers(), 2u);
        EXPECT_GT(cluster.nic(dst).rxPackets(), 0u);
        std::vector<Cluster::ArenaStats> st = cluster.arenaStats();
        EXPECT_EQ(st[0].nodes, 1u);
        EXPECT_EQ(st[3].nodes, 1u);
    }
}

} // namespace
} // namespace sim
} // namespace diablo
