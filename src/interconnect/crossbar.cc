#include "interconnect/crossbar.hh"

#include <utility>

#include "checkpoint/checkpoint.hh"
#include "sim/logging.hh"

namespace dsp {

/**
 * The two hot event types of the interconnect: both live in pooled
 * slots and carry only a handle to the shared payload, so a
 * fully-loaded network schedules hops without touching the heap and
 * a multicast fan-out never copies the Message.
 */
struct OrderedCrossbar::OrderEvent final : Event {
    OrderEvent(OrderedCrossbar &x, MessageRef &&m, unsigned h, Tick t,
               bool serialized)
        : xbar(x), msg(std::move(m)), hub(h), tick(t),
          serialized(serialized)
    {
    }

    void
    process() override
    {
        if (serialized) {
            // Already holds its ordering slot; run the order handler
            // and fan out at the slot tick.
            xbar.orderAndFanOut(msg, tick);
            return;
        }
        // Arrival at the ordering point: claim the next slot. The
        // spacing state (lastOrder) belongs to this hub's domain, so
        // it is applied here -- at arrival, in deterministic arrival
        // order -- not at send time in some other domain.
        HubState &point = xbar.hubs_[hub];
        Tick slot = std::max(tick, point.lastOrder + xbar.orderGap_);
        point.lastOrder = slot;
        if (slot > tick) {
            if (xbar.fuse_) {
                // Fused: consume the same key the unfused reschedule
                // would, then either take the slot inline (the gap is
                // tiny, so it usually sits inside this window) or
                // re-insert *ourselves* at it -- either way one pool
                // event serves both hops.
                std::uint64_t key = point.port.allocKey(
                    EventPriority::NetworkOrder);
                tick = slot;
                serialized = true;
                if (point.port.queue().chainAdvance(
                        slot, key, point.port.domain())) {
                    xbar.orderAndFanOut(msg, slot);
                    return;
                }
                point.port.scheduleKeyed(*this, slot, key);
                return;
            }
            point.port.schedule(
                *EventPool<OrderEvent>::instance().acquire(
                    xbar, std::move(msg), hub, slot, true),
                slot, EventPriority::NetworkOrder);
            return;
        }
        xbar.orderAndFanOut(msg, tick);
    }

    void
    release() override
    {
        EventPool<OrderEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::XbarOrder));
        w.pod(*msg);
        w.u32(hub);
        w.u64(tick);
        w.b(serialized);
    }

    OrderedCrossbar &xbar;
    MessageRef msg;
    unsigned hub;
    Tick tick;
    bool serialized;
};

struct OrderedCrossbar::DeliverEvent final : Event {
    DeliverEvent(OrderedCrossbar &x, const MessageRef &m, NodeId d,
                 Tick w, bool booked)
        : xbar(x), msg(m), dest(d), when(w), booked(booked)
    {
    }

    void
    process() override
    {
        if (!booked) {
            if (xbar.fuse_) {
                Tick start = xbar.ingressArrival(msg, dest, when);
                if (start == maxTick)
                    return;
                // Contended link: same key the unfused refire would
                // consume, then deliver inline at the link-free tick
                // or re-insert ourselves there.
                DomainPort &port = xbar.nodes_[dest].port;
                std::uint64_t key =
                    port.allocKey(EventPriority::Delivery);
                when = start;
                booked = true;
                if (port.queue().chainAdvance(start, key,
                                              port.domain())) {
                    if (xbar.onDeliver_)
                        xbar.onDeliver_(*msg, dest, start);
                    return;
                }
                port.scheduleKeyed(*this, start, key);
                return;
            }
            xbar.arriveAtDest(msg, dest, when);
            return;
        }
        if (xbar.onDeliver_)
            xbar.onDeliver_(*msg, dest, when);
    }

    void
    release() override
    {
        EventPool<DeliverEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::XbarDeliver));
        w.pod(*msg);
        w.u32(dest);
        w.u64(when);
        w.b(booked);
    }

    OrderedCrossbar &xbar;
    MessageRef msg;
    NodeId dest;
    Tick when;
    bool booked;
};

/**
 * One fan-out's deliveries bound for one shard queue, however many.
 * The chain walks the payload's destination set from a cursor,
 * stopping only at destinations its shard owns. Every hop shares the
 * fan-out's delivery tick and carries the key the unfused fan-out
 * would have assigned it -- the fan-out's first key plus the hop's
 * rank among the destinations (the source excluded) -- so the
 * queue sees one insert and one pop per shard where it used to see
 * one per destination. Later hops execute inline through
 * chainAdvance, which refuses whenever an unrelated event orders
 * between two hops or the window ends; the chain then re-inserts
 * itself at the refused hop's coordinates, reproducing the unfused
 * total order exactly.
 */
struct OrderedCrossbar::ChainEvent final : Event {
    ChainEvent(OrderedCrossbar &x, const MessageRef &m, Tick w,
               std::uint64_t first_key, NodeId first,
               std::uint32_t first_rank, NodeId last_dest)
        : xbar(x), msg(m), when(w), firstKey(first_key), dest(first),
          rank(first_rank), last(last_dest),
          shard(x.nodes_[first].port.shard())
    {
    }

    /** Move a (destination, rank) cursor to the next destination
     *  this chain's shard owns; never called at `last`. */
    void
    step(NodeId &d, std::uint32_t &r) const
    {
        const NodeId src = msg->src;
        do {
            d = msg->dests.nextAfter(d);
            if (d != src)
                ++r;
        } while (d == src || xbar.nodes_[d].port.shard() != shard);
    }

    void
    process() override
    {
        for (;;) {
            xbar.arriveAtDest(msg, dest, when);
            if (dest == last)
                return;  // the queue releases us
            step(dest, rank);
            DomainPort &port = xbar.nodes_[dest].port;
            const std::uint64_t key = firstKey + rank;
            if (!port.queue().chainAdvance(when, key, port.domain())) {
                // Something orders before this hop (or the window
                // ends here): hand the rest back to the queue.
                port.scheduleKeyed(*this, when, key);
                return;
            }
        }
    }

    void
    release() override
    {
        EventPool<ChainEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        // Only the hops still to run, as explicit (dest, key, domain)
        // triples; restore re-splits them into plain deliveries (see
        // ckptRestoreChain).
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::XbarChain));
        w.pod(*msg);
        w.u64(when);
        NodeId d = dest;
        std::uint32_t r = rank;
        std::uint32_t remaining = 1;
        while (d != last) {
            step(d, r);
            ++remaining;
        }
        w.u32(remaining);
        d = dest;
        r = rank;
        for (;;) {
            w.u32(d);
            w.u64(firstKey + r);
            w.u16(xbar.nodes_[d].port.domain());
            if (d == last)
                break;
            step(d, r);
        }
    }

    OrderedCrossbar &xbar;
    MessageRef msg;
    Tick when;
    std::uint64_t firstKey;  ///< the fan-out's rank-0 key
    NodeId dest;             ///< cursor: the next hop to run
    std::uint32_t rank;      ///< the cursor's rank
    NodeId last;             ///< this chain's final hop
    unsigned shard;
};

OrderedCrossbar::OrderedCrossbar(std::vector<DomainPort> hub_ports,
                                 std::vector<DomainPort> node_ports,
                                 const CrossbarParams &params)
    : params_(params),
      topo_(static_cast<NodeId>(node_ports.size()), params.topology,
            params.traversal_ns),
      orderGap_(nsToTicks(params.ordering_gap_ns)),
      fuse_(params.fuse_chains)
{
    dsp_assert(!node_ports.empty() && node_ports.size() <= maxNodes,
               "bad crossbar size %zu", node_ports.size());
    dsp_assert(hub_ports.size() == topo_.hubs(),
               "expected %u hub ports, got %zu", topo_.hubs(),
               hub_ports.size());
    for (std::size_t k = 0; k < numKinds; ++k) {
        occupancyByKind_[k] =
            occupancy(messageBytes(static_cast<MessageKind>(k)));
    }
    hubs_.resize(hub_ports.size());
    for (std::size_t h = 0; h < hub_ports.size(); ++h)
        hubs_[h].port = hub_ports[h];
    nodes_.resize(node_ports.size());
    // Fused fan-outs group destinations by shard index, so every
    // port of one shard index must schedule into one queue (always
    // true of kernel ports; standalone ports all report shard 0).
    std::array<const EventQueue *, ShardedKernel::maxShards> queues{};
    for (std::size_t n = 0; n < node_ports.size(); ++n) {
        nodes_[n].port = node_ports[n];
        const EventQueue *&q = queues[node_ports[n].shard()];
        dsp_assert(q == nullptr || q == &node_ports[n].queue(),
                   "node ports of shard %u span event queues",
                   node_ports[n].shard());
        q = &node_ports[n].queue();
    }
}

namespace {

std::vector<DomainPort>
standalonePorts(EventQueue &queue, std::size_t count)
{
    return std::vector<DomainPort>(count, DomainPort(queue));
}

} // namespace

OrderedCrossbar::OrderedCrossbar(EventQueue &queue, NodeId num_nodes,
                                 const CrossbarParams &params)
    : OrderedCrossbar(standalonePorts(queue, params.topology.hubs),
                      standalonePorts(queue, num_nodes), params)
{
}

void
OrderedCrossbar::setOrderHandler(OrderHandler handler)
{
    onOrder_ = std::move(handler);
}

void
OrderedCrossbar::setDeliverHandler(DeliverHandler handler)
{
    onDeliver_ = std::move(handler);
}

void
OrderedCrossbar::setPassiveFilter(PassiveFilter filter,
                                  const void *ctx)
{
    passive_ = filter;
    passiveCtx_ = ctx;
}

void
OrderedCrossbar::scheduleDelivery(const MessageRef &msg, NodeId dest,
                                  Tick when, bool booked)
{
    nodes_[dest].port.schedule(
        *EventPool<DeliverEvent>::instance().acquire(*this, msg, dest,
                                                     when, booked),
        when, EventPriority::Delivery);
}

Tick
OrderedCrossbar::ingressArrival(const MessageRef &msg, NodeId dest,
                                Tick now)
{
    NodeState &node = nodes_[dest];
    node.traffic[static_cast<std::size_t>(msg->kind)].add(
        msg->bytes());

    // Cut-through: the head is delivered when the link becomes free;
    // the occupancy only delays *later* messages on the same link.
    Tick start = std::max(now, node.ingressFree);
    node.ingressFree = start + occupancyOf(msg->kind);
    // A passive delivery has done all it ever does: it occupied the
    // link and was counted. No handler call, and no refire -- unless
    // the refire would cross the window boundary: the events pending
    // at a barrier steer the window plan (and so where phases and
    // checkpoints stop), and must not depend on this shortcut.
    if (passive_ != nullptr && node.port.queue().withinRun(start) &&
        passive_(passiveCtx_, *msg, dest)) {
        return maxTick;
    }
    if (start > now)
        return start;
    if (onDeliver_)
        onDeliver_(*msg, dest, now);
    return maxTick;
}

void
OrderedCrossbar::arriveAtDest(const MessageRef &msg, NodeId dest,
                              Tick now)
{
    Tick start = ingressArrival(msg, dest, now);
    if (start != maxTick)
        scheduleDelivery(msg, dest, start, true);
}

void
OrderedCrossbar::orderAndFanOut(const MessageRef &msg, Tick order)
{
    if (onOrder_)
        onOrder_(msg, order);
    // Fan out to every destination but the source; each delivery
    // shares the one pooled payload and contends for its
    // destination's ingress link on arrival. The hub sits on the
    // global tier, so the downward leg is uniform over destinations.
    Tick deliver = order + topo_.hubHop();
    if (fuse_) {
        fanOutFused(msg, deliver);
        return;
    }
    msg->dests.forEach([&](NodeId dest) {
        if (dest == msg->src)
            return;
        scheduleDelivery(msg, dest, deliver, false);
    });
}

void
OrderedCrossbar::fanOutFused(const MessageRef &msg, Tick deliver)
{
    // Destinations (the source excluded) are ranked in ascending
    // order, and the whole fan-out takes its keys as one range: hop
    // `rank` carries the first key plus its rank -- exactly the key
    // the unfused fan-out's per-destination schedule() would assign.
    // Hops are then grouped by owning shard queue in first-appearance
    // order. A group of one stays a plain keyed delivery; a larger
    // group becomes one ChainEvent walking its members from the first
    // to the last. The grouping never changes behaviour (every hop
    // keeps its unfused (tick, key) coordinates), only how many
    // queue operations carry the fan-out.
    struct Group {
        NodeId first;
        NodeId last;
        std::uint32_t firstRank;
    };
    // One slot per shard index, valid once its bit in `seen` is set.
    // Deliberately uninitialized: zeroing every slot per fan-out costs
    // more than the fusion saves on small destination sets, and a
    // slot is fully written when it is claimed.
    Group groups[ShardedKernel::maxShards];
    unsigned order[ShardedKernel::maxShards];
    std::uint64_t seen = 0;
    unsigned numGroups = 0;
    std::uint32_t rank = 0;

    const NodeId src = msg->src;
    msg->dests.forEach([&](NodeId dest) {
        if (dest == src)
            return;
        const unsigned s = nodes_[dest].port.shard();
        if ((seen >> s) & 1) {
            groups[s].last = dest;
        } else {
            seen |= std::uint64_t{1} << s;
            order[numGroups++] = s;
            groups[s] = Group{dest, dest, rank};
        }
        ++rank;
    });
    if (rank == 0)
        return;

    const std::uint64_t firstKey =
        nodes_[groups[order[0]].first].port.allocKeys(
            EventPriority::Delivery, rank);
    for (unsigned i = 0; i < numGroups; ++i) {
        const Group &g = groups[order[i]];
        Event *ev;
        if (g.first == g.last) {
            ev = EventPool<DeliverEvent>::instance().acquire(
                *this, msg, g.first, deliver, false);
        } else {
            ev = EventPool<ChainEvent>::instance().acquire(
                *this, msg, deliver, firstKey, g.first, g.firstRank,
                g.last);
        }
        // The chain pops at its first hop's coordinates; later hops
        // run inline from there (or re-insert it at their own key).
        nodes_[g.first].port.scheduleKeyed(*ev, deliver,
                                           firstKey + g.firstRank);
    }
}

void
OrderedCrossbar::sendOrdered(Message msg)
{
    dsp_assert(isOrdered(msg.kind), "sendOrdered with unordered kind");
    NodeState &src = nodes_[msg.src];
    Tick depart = std::max(src.port.now(), src.egressFree);
    src.egressFree = depart + occupancyOf(msg.kind);

    unsigned hub = topo_.hubOf(msg.block());
    Tick arrive = depart + topo_.hubHop();
    hubs_[hub].port.schedule(
        *EventPool<OrderEvent>::instance().acquire(
            *this, MessageRef(std::move(msg)), hub, arrive, false),
        arrive, EventPriority::NetworkOrder);
}

void
OrderedCrossbar::sendDirect(Message msg)
{
    dsp_assert(!isOrdered(msg.kind), "sendDirect with ordered kind");
    dsp_assert(msg.dest < numNodes(), "bad destination %u", msg.dest);
    NodeState &src = nodes_[msg.src];
    Tick depart = std::max(src.port.now(), src.egressFree);
    src.egressFree = depart + occupancyOf(msg.kind);

    NodeId dest = msg.dest;
    Tick arrive = depart + topo_.directHop(msg.src, dest);
    scheduleDelivery(MessageRef(std::move(msg)), dest, arrive, false);
}

TrafficStats
OrderedCrossbar::traffic(MessageKind kind) const
{
    TrafficStats total;
    for (const NodeState &node : nodes_) {
        const TrafficStats &s =
            node.traffic[static_cast<std::size_t>(kind)];
        total.messages += s.messages;
        total.bytes += s.bytes;
    }
    return total;
}

std::uint64_t
OrderedCrossbar::totalBytes() const
{
    std::uint64_t total = 0;
    for (const NodeState &node : nodes_) {
        for (const TrafficStats &s : node.traffic)
            total += s.bytes;
    }
    return total;
}

void
OrderedCrossbar::resetStats()
{
    for (NodeState &node : nodes_)
        node.traffic.fill(TrafficStats{});
}

void
OrderedCrossbar::ckptSave(ckpt::Writer &w) const
{
    w.section(0x58424152u);  // "XBAR"
    w.u64(hubs_.size());
    for (const HubState &hub : hubs_)
        w.u64(hub.lastOrder);
    w.u64(nodes_.size());
    for (const NodeState &node : nodes_) {
        w.u64(node.ingressFree);
        w.u64(node.egressFree);
        for (const TrafficStats &t : node.traffic) {
            w.u64(t.messages);
            w.u64(t.bytes);
        }
    }
}

void
OrderedCrossbar::ckptLoad(ckpt::Reader &r)
{
    r.section(0x58424152u);
    dsp_assert(r.u64() == hubs_.size(),
               "checkpoint crossbar hub count mismatch");
    for (HubState &hub : hubs_)
        hub.lastOrder = r.u64();
    dsp_assert(r.u64() == nodes_.size(),
               "checkpoint crossbar node count mismatch");
    for (NodeState &node : nodes_) {
        node.ingressFree = r.u64();
        node.egressFree = r.u64();
        for (TrafficStats &t : node.traffic) {
            t.messages = r.u64();
            t.bytes = r.u64();
        }
    }
}

Event &
OrderedCrossbar::ckptRestoreOrder(ckpt::Reader &r)
{
    Message m = r.pod<Message>();
    unsigned hub = r.u32();
    Tick tick = r.u64();
    bool serialized = r.b();
    return *EventPool<OrderEvent>::instance().acquire(
        *this, MessageRef(std::move(m)), hub, tick, serialized);
}

Event &
OrderedCrossbar::ckptRestoreDeliver(ckpt::Reader &r)
{
    Message m = r.pod<Message>();
    NodeId dest = r.u32();
    Tick when = r.u64();
    bool booked = r.b();
    return *EventPool<DeliverEvent>::instance().acquire(
        *this, MessageRef(std::move(m)), dest, when, booked);
}

Event &
OrderedCrossbar::ckptRestoreChain(ckpt::Reader &r,
                                  ShardedKernel &kernel)
{
    Message m = r.pod<Message>();
    Tick when = r.u64();
    std::uint32_t remaining = r.u32();
    dsp_assert(remaining >= 1, "empty fused chain in checkpoint");

    MessageRef msg{std::move(m)};
    // Hop 0 rides the caller's pending-event record (the chain was
    // saved at hop 0's coordinates); the rest re-insert themselves
    // here at their own saved (when, key, domain). All of them come
    // back as plain unbooked deliveries -- a different shard count
    // need not keep them on one queue, and later fan-outs re-fuse.
    NodeId dest0 = r.u32();
    r.u64();  // hop 0's key: re-supplied by the pending-event record
    r.u16();  // hop 0's domain: likewise
    Event &head = *EventPool<DeliverEvent>::instance().acquire(
        *this, msg, dest0, when, false);
    for (std::uint32_t i = 1; i < remaining; ++i) {
        NodeId dest = r.u32();
        std::uint64_t key = r.u64();
        std::uint16_t domain = r.u16();
        kernel.ckptSchedule(*EventPool<DeliverEvent>::instance()
                                 .acquire(*this, msg, dest, when,
                                          false),
                            domain, when, key);
    }
    return head;
}

} // namespace dsp
