/**
 * @file
 * A net::ChannelLink over a fame::PartitionSet channel must deliver
 * every packet at the same simulated instant as a plain net::Link on
 * one Simulator: crossing a partition boundary changes which event
 * queue runs the delivery, never when it runs.  This is the property
 * that lets a sharded cluster reproduce the unsharded model exactly.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "fame/partition.hh"
#include "net/channel_link.hh"

namespace diablo {
namespace {

using namespace diablo::time_literals;

const Bandwidth kBw = Bandwidth::gbps(1);
constexpr SimTime kProp = SimTime::us(2);

/** Records (arrival time, payload bytes) per delivered packet. */
class TimestampSink : public net::PacketSink {
  public:
    TimestampSink(Simulator &sim, bool early) : sim_(sim), early_(early)
    {
    }

    void
    receive(net::PacketPtr p) override
    {
        arrivals.emplace_back(sim_.now(), p->payload_bytes);
    }

    bool wantsEarlyDelivery() const override { return early_; }

    std::vector<std::pair<SimTime, uint32_t>> arrivals;

  private:
    Simulator &sim_;
    bool early_;
};

/** Transmit-side queue that refills the link from its tx-done hook. */
class Sender {
  public:
    Sender(Simulator &sim, net::Link &link) : sim_(sim), link_(link)
    {
        link_.setTxDoneCallback([this] { pump(); });
    }

    void
    enqueue(uint32_t payload)
    {
        queue_.push_back(payload);
        pump();
    }

  private:
    void
    pump()
    {
        if (link_.busy() || queue_.empty()) {
            return;
        }
        net::PacketPtr p = net::makePacket(sim_);
        p->flow.proto = net::Proto::Udp;
        p->payload_bytes = queue_.front();
        queue_.pop_front();
        link_.transmit(std::move(p));
    }

    Simulator &sim_;
    net::Link &link_;
    std::deque<uint32_t> queue_;
};

/**
 * The packet train, scheduled on the transmitter's Simulator:
 * back-to-back bursts of mixed frame sizes, a lossy brownout with
 * extra latency in the middle (cleared while degraded frames are still
 * in flight), and a few spaced frames at the end.
 */
void
scheduleTrain(Simulator &tx, net::Link &link, Sender &sender)
{
    const uint32_t sizes[] = {18, 1460, 300, 900, 64, 1200};
    auto burst = [&sender, sizes](int n) {
        for (int i = 0; i < n; ++i) {
            sender.enqueue(sizes[i % 6]);
        }
    };
    tx.scheduleAt(0_us, [burst] { burst(12); });
    tx.scheduleAt(150_us, [&link, burst] {
        link.setDegraded(0.3, 3_us, /*seed=*/7);
        burst(30);
    });
    tx.scheduleAt(400_us, [&link, burst] {
        link.clearDegraded();
        burst(12);
    });
    for (int i = 0; i < 3; ++i) {
        tx.scheduleAt(SimTime::us(800 + 100 * i), [burst] { burst(1); });
    }
}

struct TrainOutcome {
    std::vector<std::pair<SimTime, uint32_t>> arrivals;
    uint64_t degrade_drops = 0;
};

TrainOutcome
runOnOneSimulator(bool early)
{
    Simulator sim;
    TimestampSink sink(sim, early);
    net::Link link(sim, "trunk", kBw, kProp);
    link.connectTo(sink);
    Sender sender(sim, link);
    scheduleTrain(sim, link, sender);
    sim.run();
    return TrainOutcome{sink.arrivals, link.degradeDrops()};
}

TrainOutcome
runAcrossPartitions(bool early, bool parallel)
{
    fame::PartitionSet ps(2);
    fame::PartitionSet::Channel &ch = ps.makeChannel(
        0, 1, net::ChannelLink::minDeliveryLatency(kBw, kProp));
    TimestampSink sink(ps.partition(1), early);
    net::ChannelLink link(ps.partition(0), "trunk", kBw, kProp,
                          [&ch](SimTime when, EventFn fn) {
                              ch.post(when, std::move(fn));
                          });
    link.connectTo(sink);
    Sender sender(ps.partition(0), link);
    scheduleTrain(ps.partition(0), link, sender);
    if (parallel) {
        ps.setParallelism(2);
        ps.runParallel(SimTime::max());
    } else {
        ps.runSequential(SimTime::max());
    }
    return TrainOutcome{sink.arrivals, link.degradeDrops()};
}

TEST(ChannelLink, DeliversAtThePlainLinkInstants)
{
    for (bool early : {false, true}) {
        const TrainOutcome ref = runOnOneSimulator(early);
        // The train really exercises the brownout: some frames lost,
        // most delivered.
        ASSERT_GT(ref.degrade_drops, 0u);
        ASSERT_GT(ref.arrivals.size(), 40u);
        for (bool parallel : {false, true}) {
            const TrainOutcome got = runAcrossPartitions(early, parallel);
            EXPECT_EQ(got.degrade_drops, ref.degrade_drops)
                << "early=" << early << " parallel=" << parallel;
            EXPECT_EQ(got.arrivals, ref.arrivals)
                << "early=" << early << " parallel=" << parallel;
        }
    }
}

} // namespace
} // namespace diablo
