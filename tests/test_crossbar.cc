/**
 * @file
 * Tests for the totally-ordered crossbar: serialization, latency
 * calibration, bandwidth occupancy, and traffic accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "interconnect/crossbar.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

Message
request(NodeId src, DestinationSet dests, TxnId txn = 1)
{
    Message msg;
    msg.kind = MessageKind::Request;
    msg.txn = txn;
    msg.addr = 0x1000;
    msg.src = src;
    msg.dests = dests;
    return msg;
}

Message
data(NodeId src, NodeId dest)
{
    Message msg;
    msg.kind = MessageKind::Data;
    msg.src = src;
    msg.dest = dest;
    return msg;
}

TEST(Crossbar, OrderedRequestTraversalIs50ns)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    Tick order_tick = 0, deliver_tick = 0;
    xbar.setOrderHandler(
        [&](const MessageRef &, Tick t) { order_tick = t; });
    xbar.setDeliverHandler(
        [&](const Message &, NodeId, Tick t) { deliver_tick = t; });

    xbar.sendOrdered(request(0, DestinationSet::of(5)));
    q.run();
    // Order at 25 ns, delivery at exactly 50 ns when uncontended.
    EXPECT_EQ(order_tick, nsToTicks(25.0));
    EXPECT_EQ(deliver_tick, nsToTicks(50.0));
}

TEST(Crossbar, DirectDataTraversalIs50nsPlusOccupancy)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    Tick deliver_tick = 0;
    xbar.setDeliverHandler(
        [&](const Message &, NodeId, Tick t) { deliver_tick = t; });
    xbar.sendDirect(data(1, 2));
    q.run();
    // Cut-through: 50 ns flight; the 7.2 ns occupancy only delays
    // later messages on the same links.
    EXPECT_EQ(deliver_tick, nsToTicks(50.0));
}

TEST(Crossbar, TotalOrderIsGlobal)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    std::vector<TxnId> order;
    xbar.setOrderHandler(
        [&](const MessageRef &msg, Tick) { order.push_back(msg->txn); });

    // Two requests from different nodes at the same tick: exactly one
    // global order results, and every destination sees both in that
    // order (delivery per destination is FIFO from the order point).
    std::vector<std::pair<TxnId, Tick>> deliveries;
    xbar.setDeliverHandler(
        [&](const Message &msg, NodeId dest, Tick t) {
            if (dest == 7)
                deliveries.push_back({msg.txn, t});
        });

    xbar.sendOrdered(request(0, DestinationSet::all(kNodes), 1));
    xbar.sendOrdered(request(1, DestinationSet::all(kNodes), 2));
    q.run();

    ASSERT_EQ(order.size(), 2u);
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0].first, order[0]);
    EXPECT_EQ(deliveries[1].first, order[1]);
    EXPECT_LE(deliveries[0].second, deliveries[1].second);
}

TEST(Crossbar, SourceIsNeverDelivered)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    bool self_delivery = false;
    xbar.setDeliverHandler(
        [&](const Message &msg, NodeId dest, Tick) {
            self_delivery |= dest == msg.src;
        });
    xbar.sendOrdered(request(3, DestinationSet::all(kNodes)));
    q.run();
    EXPECT_FALSE(self_delivery);
}

TEST(Crossbar, BroadcastReachesAllOthers)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    DestinationSet seen;
    xbar.setDeliverHandler(
        [&](const Message &, NodeId dest, Tick) { seen.add(dest); });
    xbar.sendOrdered(request(3, DestinationSet::all(kNodes)));
    q.run();
    EXPECT_EQ(seen.count(), kNodes - 1);
    EXPECT_FALSE(seen.contains(3));
}

TEST(Crossbar, IngressContentionSerializesDeliveries)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    std::vector<Tick> arrivals;
    xbar.setDeliverHandler(
        [&](const Message &, NodeId dest, Tick t) {
            if (dest == 9)
                arrivals.push_back(t);
        });
    // Ten data messages from distinct sources to one destination:
    // each occupies the 10 GB/s ingress for 7.2 ns.
    for (NodeId src = 0; src < 8; ++src)
        xbar.sendDirect(data(src, 9));
    q.run();
    ASSERT_EQ(arrivals.size(), 8u);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        EXPECT_GE(arrivals[i] - arrivals[i - 1],
                  nsToTicks(7.2) - 1);
    }
}

TEST(Crossbar, OrderingPointSpacesBackToBackRequests)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    std::vector<Tick> orders;
    xbar.setOrderHandler(
        [&](const MessageRef &, Tick t) { orders.push_back(t); });
    for (int i = 0; i < 4; ++i)
        xbar.sendOrdered(request(static_cast<NodeId>(i),
                                 DestinationSet::of(15)));
    q.run();
    ASSERT_EQ(orders.size(), 4u);
    for (std::size_t i = 1; i < orders.size(); ++i)
        EXPECT_GT(orders[i], orders[i - 1]);
}

TEST(Crossbar, TrafficAccounting)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    xbar.setDeliverHandler([](const Message &, NodeId, Tick) {});
    DestinationSet three;
    three.add(1);
    three.add(2);
    three.add(3);
    xbar.sendOrdered(request(0, three));
    xbar.sendDirect(data(1, 0));
    q.run();

    EXPECT_EQ(xbar.traffic(MessageKind::Request).messages, 3u);
    EXPECT_EQ(xbar.traffic(MessageKind::Request).bytes,
              3 * requestMessageBytes);
    EXPECT_EQ(xbar.traffic(MessageKind::Data).messages, 1u);
    EXPECT_EQ(xbar.traffic(MessageKind::Data).bytes,
              dataMessageBytes);
    EXPECT_EQ(xbar.totalBytes(),
              3 * requestMessageBytes + dataMessageBytes);

    xbar.resetStats();
    EXPECT_EQ(xbar.totalBytes(), 0u);
}

TEST(Crossbar, MulticastFanOutIsZeroCopy)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);

    // Every delivery must hand back the *same* pooled payload object
    // (no per-destination Message copies), and its bytes must match
    // the original request exactly at every destination.
    Message original = request(3, DestinationSet::all(kNodes), 42);
    original.addr = 0x7c0;
    original.pc = 0x1234;
    original.type = RequestType::GetExclusive;

    std::vector<const Message *> payloads;
    DestinationSet seen;
    xbar.setDeliverHandler(
        [&](const Message &msg, NodeId dest, Tick) {
            payloads.push_back(&msg);
            seen.add(dest);
            EXPECT_EQ(msg.kind, original.kind);
            EXPECT_EQ(msg.txn, original.txn);
            EXPECT_EQ(msg.addr, original.addr);
            EXPECT_EQ(msg.pc, original.pc);
            EXPECT_EQ(msg.type, original.type);
            EXPECT_EQ(msg.src, original.src);
            EXPECT_EQ(msg.dests, original.dests);
            EXPECT_EQ(msg.attempt, original.attempt);
        });

    const MessagePoolStats before = MessageRef::stats();
    xbar.sendOrdered(original);
    q.run();
    const MessagePoolStats after = MessageRef::stats();

    // 15 destinations (everyone but the source), one shared payload.
    ASSERT_EQ(payloads.size(), static_cast<std::size_t>(kNodes - 1));
    EXPECT_EQ(seen.count(), kNodes - 1);
    for (const Message *p : payloads)
        EXPECT_EQ(p, payloads.front());

    // Pool accounting: exactly one payload entered the pool for the
    // whole fan-out, refs (not copies) covered the deliveries, and
    // the payload was returned once the last delivery ran. A fused
    // fan-out takes one ref per shard queue it reaches, so the ref
    // count sits between 1 and one-per-destination.
    EXPECT_EQ(after.acquires - before.acquires, 1u);
    EXPECT_EQ(after.releases - before.releases, 1u);
    EXPECT_GE(after.refsShared - before.refsShared, 1u);
    EXPECT_LE(after.refsShared - before.refsShared,
              static_cast<std::uint64_t>(kNodes - 1));
    EXPECT_EQ(after.live(), before.live());
}

TEST(Crossbar, DirectSendPayloadIsPooledAndReleased)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    int deliveries = 0;
    xbar.setDeliverHandler(
        [&](const Message &, NodeId, Tick) { ++deliveries; });

    const MessagePoolStats before = MessageRef::stats();
    xbar.sendDirect(data(1, 2));
    xbar.sendDirect(data(2, 3));
    q.run();
    const MessagePoolStats after = MessageRef::stats();

    EXPECT_EQ(deliveries, 2);
    EXPECT_EQ(after.acquires - before.acquires, 2u);
    EXPECT_EQ(after.releases - before.releases, 2u);
    EXPECT_EQ(after.live(), before.live());
}

/** Passive filter for the tests below: transactions listed in the
 *  context are passive at every destination. */
bool
passiveTxn(const void *ctx, const Message &msg, NodeId)
{
    const auto &txns = *static_cast<const std::vector<TxnId> *>(ctx);
    return std::find(txns.begin(), txns.end(), msg.txn) != txns.end();
}

TEST(Crossbar, PassiveDeliveryBooksTheLinkButSkipsTheHandler)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    const std::vector<TxnId> passive{1};
    xbar.setPassiveFilter(passiveTxn, &passive);
    std::vector<std::pair<TxnId, Tick>> seen;
    xbar.setDeliverHandler(
        [&](const Message &msg, NodeId dest, Tick t) {
            if (dest == 9)
                seen.push_back({msg.txn, t});
        });

    // Passive txn 1 reaches node 9 at 50 ns; active txn 2, ordered one
    // gap later, arrives while txn 1 still occupies the ingress link.
    xbar.sendOrdered(request(0, DestinationSet::of(9), 1));
    xbar.sendOrdered(request(1, DestinationSet::of(9), 2));
    q.run();

    ASSERT_EQ(seen.size(), 1u);  // the handler never sees txn 1
    EXPECT_EQ(seen[0].first, 2u);
    // Txn 2 waits for the link txn 1 booked: delivered at txn 1's
    // arrival plus its occupancy, not at its own uncontended 50.5 ns.
    EXPECT_EQ(seen[0].second, nsToTicks(50.0) + nsToTicks(0.8));
    EXPECT_EQ(xbar.traffic(MessageKind::Request).messages, 2u);
    EXPECT_EQ(xbar.traffic(MessageKind::Request).bytes,
              2 * requestMessageBytes);
}

TEST(Crossbar, ContendedPassiveDeliveryNeverRefires)
{
    // Active txn 1, passive txn 2, active txn 3, one ordering gap
    // apart, all to node 9: txn 2 finds the link busy. It books its
    // slot (txn 3 lands after it) but schedules no refire event.
    auto run = [](bool filtered, std::vector<Tick> &ticks) {
        EventQueue q;
        OrderedCrossbar xbar(q, kNodes);
        const std::vector<TxnId> passive{2};
        if (filtered)
            xbar.setPassiveFilter(passiveTxn, &passive);
        xbar.setDeliverHandler(
            [&](const Message &msg, NodeId, Tick t) {
                if (msg.txn != 2)
                    ticks.push_back(t);
            });
        for (TxnId txn = 1; txn <= 3; ++txn) {
            xbar.sendOrdered(request(static_cast<NodeId>(txn),
                                     DestinationSet::of(9), txn));
        }
        q.run();
        EXPECT_EQ(xbar.traffic(MessageKind::Request).messages, 3u);
        return q.executed();
    };
    std::vector<Tick> filtered_ticks, plain_ticks;
    const std::uint64_t filtered = run(true, filtered_ticks);
    const std::uint64_t plain = run(false, plain_ticks);
    EXPECT_EQ(filtered_ticks, plain_ticks);
    ASSERT_EQ(filtered_ticks.size(), 2u);
    EXPECT_EQ(filtered_ticks[1], nsToTicks(50.0) + 2 * nsToTicks(0.8));
    EXPECT_EQ(filtered + 1, plain);  // txn 2's refire is gone
}

TEST(Crossbar, MessageKindMetadata)
{
    EXPECT_TRUE(isOrdered(MessageKind::Request));
    EXPECT_TRUE(isOrdered(MessageKind::Retry));
    EXPECT_FALSE(isOrdered(MessageKind::Data));
    EXPECT_EQ(messageBytes(MessageKind::Data), 72u);
    EXPECT_EQ(messageBytes(MessageKind::Writeback), 72u);
    EXPECT_EQ(messageBytes(MessageKind::Request), 8u);
    EXPECT_EQ(messageBytes(MessageKind::Grant), 8u);
}

// ------------------------------------------------------------- topology

TEST(Topology, FlatDefaultReproducesTable4Legs)
{
    // The degenerate topology is the paper's single-hop crossbar:
    // node leg = traversal/2, no switch tier, one hub.
    Topology topo(16, TopologyParams{}, 50.0);
    EXPECT_TRUE(topo.flat());
    EXPECT_EQ(topo.numClusters(), 1u);
    EXPECT_EQ(topo.hubHop(), nsToTicks(25.0));
    EXPECT_EQ(topo.directHop(0, 15), nsToTicks(50.0));
    EXPECT_EQ(topo.minHop(), nsToTicks(25.0));
    EXPECT_EQ(topo.hubOf(0x123456), 0u);
}

TEST(Topology, HierarchicalLegsAndClusterMembership)
{
    TopologyParams p;
    p.cluster_size = 16;
    p.cluster_link_ns = 10.0;
    p.switch_link_ns = 15.0;
    p.hubs = 4;
    Topology topo(64, p, 50.0);

    EXPECT_FALSE(topo.flat());
    EXPECT_EQ(topo.numClusters(), 4u);
    EXPECT_TRUE(topo.sameCluster(0, 15));
    EXPECT_FALSE(topo.sameCluster(15, 16));
    EXPECT_EQ(topo.clusterOf(63), 3u);

    // Intra-cluster: two node legs. Cross-cluster: two node legs plus
    // two switch legs. Hub distance is uniform (node + switch leg).
    EXPECT_EQ(topo.directHop(0, 15), nsToTicks(20.0));
    EXPECT_EQ(topo.directHop(0, 16), nsToTicks(50.0));
    EXPECT_EQ(topo.hubHop(), nsToTicks(25.0));
    // Lookahead is the cheapest cross-domain path: the intra-cluster
    // direct hop here.
    EXPECT_EQ(topo.minHop(), nsToTicks(20.0));
}

TEST(Topology, HubInterleavingPow2AndModulo)
{
    TopologyParams p4;
    p4.hubs = 4;
    Topology pow2(64, p4, 50.0);
    for (BlockId b = 0; b < 16; ++b)
        EXPECT_EQ(pow2.hubOf(b), b % 4);

    TopologyParams p3;
    p3.hubs = 3;
    Topology mod(64, p3, 50.0);
    for (BlockId b = 0; b < 15; ++b)
        EXPECT_EQ(mod.hubOf(b), b % 3);
}

TEST(Topology, BadGeometryPanics)
{
    PanicGuard guard;
    TopologyParams bad_cluster;
    bad_cluster.cluster_size = 10;  // does not divide 64
    EXPECT_THROW(Topology(64, bad_cluster, 50.0), std::runtime_error);
    TopologyParams bad_hubs;
    bad_hubs.hubs = Topology::maxHubs + 1;
    EXPECT_THROW(Topology(64, bad_hubs, 50.0), std::runtime_error);
}

/**
 * Hierarchical-latency pin (satellite: intra- vs cross-cluster hop
 * costs end to end): point-to-point data inside a cluster pays two
 * node legs; across clusters it adds the two switch legs; ordered
 * requests pay hub-distance twice regardless of cluster.
 */
TEST(Crossbar, HierarchicalLatenciesPinned)
{
    CrossbarParams params;
    params.topology.cluster_size = 8;
    params.topology.cluster_link_ns = 10.0;
    params.topology.switch_link_ns = 15.0;

    {
        EventQueue q;
        OrderedCrossbar xbar(q, 32, params);
        std::vector<std::pair<NodeId, Tick>> deliveries;
        xbar.setDeliverHandler(
            [&](const Message &, NodeId dest, Tick t) {
                deliveries.push_back({dest, t});
            });
        // Distinct sources so neither send queues on an egress link.
        xbar.sendDirect(data(0, 7));   // same cluster
        xbar.sendDirect(data(1, 8));   // crosses clusters
        q.run();
        ASSERT_EQ(deliveries.size(), 2u);
        EXPECT_EQ(deliveries[0].second, nsToTicks(20.0));  // 2*10 ns
        EXPECT_EQ(deliveries[1].second, nsToTicks(50.0));  // +2*15 ns
    }

    {
        EventQueue q;
        OrderedCrossbar xbar(q, 32, params);
        Tick order_tick = 0, deliver_tick = 0;
        xbar.setOrderHandler(
            [&](const MessageRef &, Tick t) { order_tick = t; });
        xbar.setDeliverHandler(
            [&](const Message &, NodeId, Tick t) { deliver_tick = t; });
        xbar.sendOrdered(request(0, DestinationSet::of(1)));
        q.run();
        // Up to the global tier (10 + 15 ns), then back down to the
        // destination: hub distance is uniform over nodes.
        EXPECT_EQ(order_tick, nsToTicks(25.0));
        EXPECT_EQ(deliver_tick, nsToTicks(50.0));
    }
}

/**
 * Address-interleaved ordering points: blocks on different hubs
 * serialize independently (same-tick verdicts), blocks on the same
 * hub space out by the ordering gap -- and a multi-hub flat machine
 * keeps the single-hub uncontended latency.
 */
TEST(Crossbar, MultiHubOrderingIsPerHub)
{
    CrossbarParams params;
    params.topology.hubs = 4;

    EventQueue q;
    OrderedCrossbar xbar(q, kNodes, params);
    std::vector<std::pair<BlockId, Tick>> orders;
    xbar.setOrderHandler(
        [&](const MessageRef &msg, Tick t) {
            orders.push_back({msg->block(), t});
        });
    xbar.setDeliverHandler([](const Message &, NodeId, Tick) {});

    auto to_block = [](BlockId b, NodeId src, TxnId txn) {
        Message msg;
        msg.kind = MessageKind::Request;
        msg.txn = txn;
        msg.addr = blockBase(b);
        msg.src = src;
        msg.dests = DestinationSet::of(15);
        return msg;
    };

    // Blocks 0 and 1 interleave to hubs 0 and 1: both serialize at
    // the uncontended 25 ns. Block 4 shares hub 0 with block 0 and
    // must be spaced behind it.
    xbar.sendOrdered(to_block(0, 0, 1));
    xbar.sendOrdered(to_block(1, 1, 2));
    xbar.sendOrdered(to_block(4, 2, 3));
    q.run();

    ASSERT_EQ(orders.size(), 3u);
    EXPECT_EQ(orders[0].second, nsToTicks(25.0));
    EXPECT_EQ(orders[1].second, nsToTicks(25.0));
    EXPECT_GT(orders[2].second, orders[0].second);
}

} // namespace
} // namespace dsp
