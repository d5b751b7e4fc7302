#include "net/channel_link.hh"

#include "core/log.hh"
#include "core/units.hh"

namespace diablo {
namespace net {

ChannelLink::ChannelLink(Simulator &src_sim, std::string name,
                         Bandwidth bw, SimTime prop, RemotePost post)
    : Link(src_sim, std::move(name), bw, prop), post_(std::move(post))
{
    if (!post_) {
        fatal("ChannelLink %s: no remote-post hook", this->name().c_str());
    }
    if (prop <= SimTime()) {
        // With zero propagation a minimum-size frame's delivery time
        // still bounds the lookahead, but a real cable keeps the
        // quantum from collapsing to the header serialization time;
        // cross-partition cables always have one.
        fatal("ChannelLink %s: propagation delay must be positive "
              "(it is part of the conservative lookahead)",
              this->name().c_str());
    }
}

SimTime
ChannelLink::minDeliveryLatency(Bandwidth bw, SimTime prop)
{
    // Earliest possible handoff is a cut-through sink's header-arrival
    // delivery: first bit at prop, plus the 64-byte forwarding header
    // (and preamble) at line rate.  Full-delivery sinks wait for the
    // whole frame, which is at least the 64-byte Ethernet minimum plus
    // framing, so this bound holds for them as well.
    return prop + bw.transferTime(eth::kCutThroughHeaderBytes +
                                  eth::kPreambleBytes);
}

void
ChannelLink::scheduleDelivery(SimTime when, PacketPtr p)
{
    // The posted event runs in the destination partition; it only
    // touches the sink (destination-side state) and the packet it
    // carries, never the transmit-side bookkeeping.  The event owns the
    // packet so frames still in flight when a run stops are reclaimed
    // with the destination queue.
    auto deliver = [this, p = std::move(p)]() mutable {
        deliverToSink(std::move(p));
    };
    // This closure is constructed once per cross-partition packet on
    // the trunk hot path; it must ride the EventFn small-buffer path
    // end to end (post -> channel buffer -> destination queue slot).
    static_assert(EventFn::inlineable<decltype(deliver)>(),
                  "ChannelLink delivery closure outgrew the EventFn "
                  "inline buffer (per-message heap allocation)");
    post_(when, EventFn(std::move(deliver)));
}

} // namespace net
} // namespace diablo
