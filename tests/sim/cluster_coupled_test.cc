/**
 * @file
 * Process-coupling tests at the cluster layer: two complete copies of
 * a 4-rack incast model, coupled over an in-process transport pair
 * exactly as the multiprocess launcher couples engine processes, must
 * reproduce the sequential reference bit-for-bit under the launcher's
 * merge rules — owner-selected per-partition event counts, and pool /
 * protocol counters summed across the two copies (the ghost-packet
 * accounting makes the sums exact, not merely close).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "apps/incast.hh"
#include "fame/transport.hh"
#include "sim/cluster.hh"
#include "sim/fault.hh"

namespace diablo {
namespace sim {
namespace {

using namespace diablo::time_literals;

ClusterParams
fourRackParams()
{
    ClusterParams p = ClusterParams::gige1us();
    p.topo.servers_per_rack = 3;
    p.topo.racks_per_array = 4;
    p.topo.num_arrays = 1;
    return p;
}

uint64_t
doubleBits(double d)
{
    uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

apps::IncastParams
incastParams()
{
    apps::IncastParams ip;
    ip.block_bytes = 32 * 1024;
    ip.iterations = 3;
    ip.warmup_iterations = 1;
    return ip;
}

std::unique_ptr<FaultController>
makeFaults(Cluster &cluster, const ClusterParams &params)
{
    FaultPlan plan(params.seed);
    plan.trunkDown(2_ms, /*rack=*/1, /*plane=*/0);
    plan.trunkBrownout(3_ms, /*rack=*/2, 0, /*loss=*/0.1, 2_us);
    plan.trunkUp(300_ms, 1, 0);
    plan.trunkRepair(300_ms, 2, 0);
    auto fc = std::make_unique<FaultController>(cluster, plan);
    fc->install();
    return fc;
}

/** One engine-side copy of the model (what each process builds). */
struct ModelCopy {
    explicit ModelCopy(bool with_faults)
        : params(fourRackParams()),
          ps(Cluster::partitionsRequired(params)), cluster(ps, params)
    {
        if (with_faults) {
            fc = makeFaults(cluster, params);
        }
        std::vector<net::NodeId> servers;
        for (net::NodeId n = 3; n < cluster.size(); ++n) {
            servers.push_back(n);
        }
        app = std::make_unique<apps::IncastApp>(cluster, incastParams(),
                                                /*client=*/0, servers);
        app->install();
    }

    ClusterParams params;
    fame::PartitionSet ps;
    Cluster cluster;
    std::unique_ptr<FaultController> fc;
    std::unique_ptr<apps::IncastApp> app;
};

/**
 * The merged view the launcher reports: app results and quanta from
 * the leader, per-partition event counts from each partition's owner,
 * pool ledgers and protocol counters summed across every copy.
 */
std::vector<uint64_t>
mergedFingerprint(std::vector<ModelCopy *> copies,
                  const std::vector<uint32_t> &owner)
{
    std::vector<uint64_t> fp;
    ModelCopy &leader = *copies[0];
    const apps::IncastResult &r = leader.app->result();
    EXPECT_TRUE(r.done);
    fp.push_back(r.total_bytes);
    fp.push_back(static_cast<uint64_t>(r.elapsed.toPs()));
    for (double s : r.iteration_us.raw()) {
        fp.push_back(doubleBits(s));
    }
    uint64_t retrans = 0, rtos = 0, udp_drops = 0, nic_drops = 0;
    uint64_t sw_drops = 0, forwarded = 0;
    for (ModelCopy *c : copies) {
        retrans += c->cluster.totalTcpRetransmits();
        rtos += c->cluster.totalTcpRtos();
        udp_drops += c->cluster.totalUdpSocketDrops();
        nic_drops += c->cluster.totalNicRxDrops();
        sw_drops += c->cluster.network().totalSwitchDrops();
        forwarded += c->cluster.network().totalForwarded();
    }
    fp.push_back(retrans);
    fp.push_back(rtos);
    fp.push_back(udp_drops);
    fp.push_back(nic_drops);
    fp.push_back(sw_drops);
    fp.push_back(forwarded);
    fp.push_back(leader.ps.quantaExecuted());
    for (size_t i = 0; i < leader.ps.size(); ++i) {
        fp.push_back(copies.size() == 1
                         ? leader.ps.partition(i).executedEvents()
                         : copies[owner[i]]
                               ->ps.partition(i)
                               .executedEvents());
    }
    for (size_t i = 0; i < leader.ps.size(); ++i) {
        uint64_t makes = 0, returns = 0;
        for (ModelCopy *c : copies) {
            makes += c->cluster.poolStats()[i].makes;
            returns += c->cluster.poolStats()[i].returns;
        }
        fp.push_back(makes);
        fp.push_back(returns);
    }
    return fp;
}

std::vector<uint64_t>
runSequentialReference(bool with_faults)
{
    ModelCopy m(with_faults);
    m.ps.runSequential(10_sec);
    return mergedFingerprint({&m}, {});
}

std::vector<uint64_t>
runProcessCoupled(bool with_faults)
{
    ModelCopy a(with_faults);
    ModelCopy b(with_faults);
    const std::vector<uint32_t> owner =
        fame::PartitionSet::lptAssign(a.ps.partitionWeights(), 2);
    EXPECT_EQ(owner,
              fame::PartitionSet::lptAssign(b.ps.partitionWeights(), 2));
    EXPECT_EQ(owner[0], 0u); // leader keeps the client rack

    auto pair = fame::makeInProcTransportPair();
    fame::PartitionSet::CoupledOptions oa;
    oa.self_rank = 0;
    oa.owner_of = owner;
    oa.peers = {{1u, pair.first.get()}};
    a.cluster.enableProcessCoupling(oa);

    fame::PartitionSet::CoupledOptions ob;
    ob.self_rank = 1;
    ob.owner_of = owner;
    ob.peers = {{0u, pair.second.get()}};
    b.cluster.enableProcessCoupling(ob);

    bool ok_b = false;
    std::thread peer([&] { ok_b = b.ps.runCoupled(10_sec); });
    const bool ok_a = a.ps.runCoupled(10_sec);
    peer.join();
    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
    EXPECT_EQ(a.ps.quantaExecuted(), b.ps.quantaExecuted());
    // Real trunk traffic crossed the transport in both directions.
    EXPECT_GT(a.ps.coupledStats().msgs_sent, 0u);
    EXPECT_GT(b.ps.coupledStats().msgs_sent, 0u);
    return mergedFingerprint({&a, &b}, owner);
}

// The tentpole contract at cluster scope: a coupled pair of engine
// copies over a transport is indistinguishable — in the launcher's
// merged artifact view — from the one-process sequential run.
TEST(ClusterCoupled, MergedViewBitIdenticalToSequential)
{
    const std::vector<uint64_t> seq = runSequentialReference(false);
    const std::vector<uint64_t> mp = runProcessCoupled(false);
    EXPECT_EQ(seq, mp);
}

// Same invariant under the trunk fault plan: every copy installs the
// full plan, owned partitions execute their replicated events, and the
// summed drop/retransmit/pool ledgers must still match exactly.
TEST(ClusterCoupled, MergedViewBitIdenticalUnderFaultPlan)
{
    const std::vector<uint64_t> seq = runSequentialReference(true);
    const std::vector<uint64_t> mp = runProcessCoupled(true);
    EXPECT_EQ(seq, mp);
}

} // namespace
} // namespace sim
} // namespace diablo
