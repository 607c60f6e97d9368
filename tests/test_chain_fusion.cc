/**
 * @file
 * Tests for fused hop-chain events (docs/parallel_kernel.md):
 *
 *  - fused and unfused runs produce bit-identical figure statistics
 *    at one and at four shards (the fusion-transparency contract);
 *  - EventQueue::chainAdvance refuses hops beyond the current run()
 *    limit (a fused hop must never leak past a planned window
 *    boundary) and hops that would jump pending earlier work;
 *  - a self-rescheduling pooled event (the shape ChainEvent and the
 *    contended order/delivery retries use) survives the execute()
 *    release-skip and is recycled exactly once on deschedule();
 *  - a checkpoint taken while fused chains are in flight restores to
 *    bit-identical figures at the same and a different shard count;
 *  - a fused fan-out's per-hop keys equal the unfused fan-out's even
 *    when the shard partition interleaves the destinations;
 *  - on the 64-node hierarchical machine under broadcast snooping
 *    (passive deliveries, one uncapped chain per shard queue), fused
 *    equals unfused, K=1 equals K=2 and K=4, and a snapshot holding a
 *    chain of more than 8 remaining hops restores at K=1 and K=4.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "interconnect/crossbar.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

// ---- standalone-queue chainAdvance contract -------------------------------

/** Member event that attempts one chain advance from inside its own
 *  process(), recording the verdict. */
struct AdvanceProbe final : Event {
    EventQueue *q = nullptr;
    Tick hop = 0;
    bool advanced = false;
    bool ran = false;

    void
    process() override
    {
        ran = true;
        advanced = q->chainAdvance(
            hop, q->allocKey(EventPriority::Delivery), 7);
    }
};

TEST(ChainAdvance, RefusesHopsBeyondTheRunLimit)
{
    EventQueue q;
    AdvanceProbe probe;
    probe.q = &q;
    probe.hop = 200;  // beyond the window the scheduler planned
    q.schedule(probe, 100, EventPriority::Delivery);

    q.run(150);
    ASSERT_TRUE(probe.ran);
    EXPECT_FALSE(probe.advanced)
        << "a fused hop crossed the run() window boundary";
    EXPECT_EQ(q.now(), 150u);  // run()'s own trailing advance
}

TEST(ChainAdvance, InlinesHopsInsideTheWindow)
{
    EventQueue q;
    AdvanceProbe probe;
    probe.q = &q;
    probe.hop = 140;
    std::uint64_t ops_before = q.calendarOps();
    std::uint64_t executed_before = q.executed();
    q.schedule(probe, 100, EventPriority::Delivery);

    q.run(150);
    ASSERT_TRUE(probe.ran);
    EXPECT_TRUE(probe.advanced);
    // The advance moved the clock and counted as an executed event,
    // but touched neither calendar plane: one insert + one pop for
    // the probe itself is the whole calendar bill.
    EXPECT_EQ(q.executed() - executed_before, 2u);
    EXPECT_EQ(q.calendarOps() - ops_before, 2u);
}

TEST(ChainAdvance, RefusesToJumpPendingEarlierWork)
{
    EventQueue q;
    AdvanceProbe probe;
    probe.q = &q;
    probe.hop = 140;
    q.schedule(probe, 100, EventPriority::Delivery);

    // A pending event at tick 120 orders before the hop at 140; the
    // advance must refuse so the calendar serves both in order.
    AdvanceProbe bystander;
    bystander.q = &q;
    bystander.hop = 121;
    q.schedule(bystander, 120, EventPriority::Delivery);

    q.run(150);
    ASSERT_TRUE(probe.ran);
    EXPECT_FALSE(probe.advanced)
        << "chain advance jumped over a pending earlier event";
    EXPECT_TRUE(bystander.ran);
}

// ---- pooled self-rescheduling events --------------------------------------

/** Pooled event that re-inserts *itself* (same-queue, future tick)
 *  until its hop budget runs out -- the ChainEvent / contended-retry
 *  shape. The queue's execute() must skip release() while the event
 *  is scheduled, and deschedule() must recycle it exactly once. */
struct SelfChain final : Event {
    EventQueue *q = nullptr;
    int hopsLeft = 0;
    int executed = 0;

    SelfChain(EventQueue &queue, int hops) : q(&queue), hopsLeft(hops)
    {
    }

    void
    process() override
    {
        ++executed;
        if (--hopsLeft > 0) {
            q->scheduleWithKey(*this, q->now() + 10,
                               q->allocKey(EventPriority::Delivery));
        }
    }

    void
    release() override
    {
        EventPool<SelfChain>::instance().release(this);
    }
};

TEST(ChainFusionEvents, DescheduleMidChainRecyclesThePooledEvent)
{
    EventPoolStats before = eventPoolStats();
    EventQueue q;
    SelfChain &chain =
        *EventPool<SelfChain>::instance().acquire(q, 4);
    q.scheduleWithKey(chain, 10,
                      q.allocKey(EventPriority::Delivery));

    // Two hops execute (10, 20); the third insertion at 30 sits
    // beyond the window and stays pending.
    q.run(25);
    EXPECT_EQ(chain.executed, 2);
    EXPECT_EQ(q.pending(), 1u);

    // Cancel mid-chain: the event leaves the calendar and goes back
    // to its pool exactly once (live count returns to the baseline).
    q.deschedule(chain);
    EXPECT_TRUE(q.empty());
    EventPoolStats after = eventPoolStats();
    EXPECT_EQ(after.live(), before.live());
    EXPECT_EQ(after.acquires - before.acquires, 1u);
    EXPECT_EQ(after.releases - before.releases, 1u);
}

TEST(ChainFusionEvents, SelfRescheduleSurvivesTheReleaseSkipAndDrains)
{
    EventPoolStats before = eventPoolStats();
    EventQueue q;
    SelfChain &chain =
        *EventPool<SelfChain>::instance().acquire(q, 3);
    q.scheduleWithKey(chain, 10,
                      q.allocKey(EventPriority::Delivery));

    // Run to completion: the final hop does not re-insert, so the
    // queue's execute() releases the event normally.
    q.run();
    EXPECT_TRUE(q.empty());
    EventPoolStats after = eventPoolStats();
    EXPECT_EQ(after.live(), before.live());
    EXPECT_EQ(after.releases - before.releases, 1u);
}

// ---- fan-out keys on a partition that interleaves shards ------------------

/** Every pending delivery's key, by destination, after a 16-way
 *  broadcast from node 0 has been ordered but not yet delivered, on a
 *  two-shard kernel that puts even nodes on shard 0 and odd nodes on
 *  shard 1 -- so each fused chain skips every other destination. */
std::vector<std::uint64_t>
pendingDeliveryKeys(bool fuse)
{
    constexpr NodeId nodes = 16;
    std::vector<unsigned> map(nodes + 2, 0);  // hub: domain 17, shard 0
    for (NodeId n = 0; n < nodes; ++n)
        map[n + 1] = n % 2;
    CrossbarParams params;
    params.fuse_chains = fuse;
    ShardedKernel kernel(2, map, nsToTicks(25.0));
    std::vector<DomainPort> node_ports;
    for (NodeId n = 0; n < nodes; ++n)
        node_ports.push_back(kernel.port(static_cast<std::uint16_t>(n + 1)));
    OrderedCrossbar xbar({kernel.port(nodes + 1)}, node_ports, params);

    Message msg;
    msg.kind = MessageKind::Request;
    msg.src = 0;
    msg.dests = DestinationSet::all(nodes);
    xbar.sendOrdered(msg);
    // The first window orders the broadcast (25 ns); stop at the next
    // barrier, before any delivery (50 ns) runs.
    int barriers = 0;
    kernel.run([&barriers] { return ++barriers == 2; });

    std::vector<std::uint64_t> keys(nodes, 0);
    for (const ShardedKernel::CkptPending &p :
         kernel.ckptCollectPending()) {
        ckpt::Writer w;
        p.ev->ckptSave(w);
        ckpt::Reader r(w.buffer());
        const auto tag = static_cast<ckpt::EventTag>(r.u8());
        r.pod<Message>();
        if (tag == ckpt::EventTag::XbarDeliver) {
            keys[r.u32()] = p.key;
            continue;
        }
        EXPECT_EQ(tag, ckpt::EventTag::XbarChain);
        r.u64();
        for (std::uint32_t hops = r.u32(); hops > 0; --hops) {
            const NodeId dest = r.u32();
            keys[dest] = r.u64();
            r.u16();
        }
    }
    return keys;
}

TEST(ChainFusion, FanOutKeysMatchUnfusedOnInterleavedShards)
{
    const std::vector<std::uint64_t> fused = pendingDeliveryKeys(true);
    const std::vector<std::uint64_t> unfused = pendingDeliveryKeys(false);
    EXPECT_EQ(fused[0], 0u);  // the source gets no delivery
    for (NodeId n = 1; n < 16; ++n)
        EXPECT_NE(unfused[n], 0u) << "node " << n;
    EXPECT_EQ(fused, unfused);
}

// ---- system-level fusion transparency -------------------------------------

/** Self-cleaning scratch directory for snapshot files. */
struct TempDir {
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/dsp_fusion_test_XXXXXX";
        const char *made = ::mkdtemp(buf);
        EXPECT_NE(made, nullptr);
        path = made ? made : "";
    }

    ~TempDir()
    {
        if (path.empty())
            return;
        if (DIR *dir = ::opendir(path.c_str())) {
            while (const dirent *entry = ::readdir(dir)) {
                std::string name = entry->d_name;
                if (name == "." || name == "..")
                    continue;
                std::remove((path + "/" + name).c_str());
            }
            ::closedir(dir);
        }
        ::rmdir(path.c_str());
    }
};

/** Snapshot files under `dir`, sorted oldest-first by tick. */
std::vector<std::pair<std::uint64_t, std::string>>
listCheckpoints(const std::string &dir)
{
    std::vector<std::pair<std::uint64_t, std::string>> found;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return found;
    while (const dirent *entry = ::readdir(d)) {
        std::string name = entry->d_name;
        if (name.size() <= 9 || name.compare(0, 5, "ckpt_") != 0 ||
            name.compare(name.size() - 4, 4, ".dsp") != 0) {
            continue;
        }
        std::uint64_t tick =
            std::strtoull(name.c_str() + 5, nullptr, 10);
        found.emplace_back(tick, dir + "/" + name);
    }
    ::closedir(d);
    std::sort(found.begin(), found.end());
    return found;
}

SystemParams
fusionParams(ProtocolKind protocol, unsigned shards, bool fuse)
{
    SystemParams params;
    params.nodes = 16;
    params.protocol = protocol;
    params.policy = PredictorPolicy::OwnerGroup;
    params.shards = shards;
    params.functionalWarmupMisses = 2000;
    params.warmupInstrPerCpu = 2000;
    params.measureInstrPerCpu = 20000;
    params.crossbar.fuse_chains = fuse;
    return params;
}

SystemStats
runOnce(const SystemParams &params)
{
    auto workload = makeWorkload("barnes", params.nodes, 1, 0.25);
    System system(*workload, params);
    return system.run();
}

/** Every figure-feeding statistic, exactly equal. Fusion must be
 *  invisible here: it may only move calendarOps (a host counter) and
 *  the wall clock. eventsExecuted is included deliberately -- an
 *  inlined hop counts as an executed event exactly like the calendar
 *  pop it replaces. */
void
expectFigureEqual(const SystemStats &a, const SystemStats &b)
{
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.indirections, b.indirections);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.doubleRetries, b.doubleRetries);
    EXPECT_EQ(a.upgrades, b.upgrades);
    EXPECT_EQ(a.cacheToCache, b.cacheToCache);
    EXPECT_EQ(a.requestMessages, b.requestMessages);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.avgMissLatencyNs, b.avgMissLatencyNs);
    EXPECT_EQ(a.cacheAccesses, b.cacheAccesses);
    EXPECT_EQ(a.l0Hits, b.l0Hits);
    EXPECT_EQ(a.l0Absorbed, b.l0Absorbed);
    EXPECT_EQ(a.wordTouches, b.wordTouches);
    EXPECT_EQ(a.stoppedEarly, b.stoppedEarly);
}

TEST(ChainFusion, FusedMatchesUnfusedBitExactlyMulticast)
{
    SystemStats unfused =
        runOnce(fusionParams(ProtocolKind::Multicast, 1, false));
    SystemStats fused =
        runOnce(fusionParams(ProtocolKind::Multicast, 1, true));
    expectFigureEqual(fused, unfused);
    EXPECT_EQ(fused.windowsRun, unfused.windowsRun);
    EXPECT_EQ(fused.barrierCrossings, unfused.barrierCrossings);
    // The point of the exercise: fan-out chains replace per-dest
    // calendar round-trips, so the fused run does measurably less
    // calendar work while matching every figure above.
    EXPECT_LT(fused.calendarOps, unfused.calendarOps);
}

TEST(ChainFusion, FusedMatchesUnfusedBitExactlySnooping)
{
    SystemStats unfused =
        runOnce(fusionParams(ProtocolKind::Snooping, 1, false));
    SystemStats fused =
        runOnce(fusionParams(ProtocolKind::Snooping, 1, true));
    expectFigureEqual(fused, unfused);
    EXPECT_LT(fused.calendarOps, unfused.calendarOps);
}

TEST(ChainFusion, FusedShardedMatchesFusedSingleThread)
{
    SystemStats k1 =
        runOnce(fusionParams(ProtocolKind::Multicast, 1, true));
    SystemStats k4 =
        runOnce(fusionParams(ProtocolKind::Multicast, 4, true));
    // Figure statistics are shard-count independent with fusion on,
    // exactly as without it (the carried-key determinism contract;
    // chain-advance refusals may differ per partition, but a refusal
    // re-inserts at unchanged coordinates).
    expectFigureEqual(k4, k1);
    EXPECT_EQ(k4.windowsRun, k1.windowsRun);
    EXPECT_EQ(k4.barrierCrossings, k1.barrierCrossings);

    // And the whole fused K=4 run matches the unfused K=4 run.
    SystemStats k4_unfused =
        runOnce(fusionParams(ProtocolKind::Multicast, 4, false));
    expectFigureEqual(k4, k4_unfused);
}

TEST(ChainFusion, CheckpointWithChainsInFlightRestoresIdentically)
{
    TempDir dir;
    SystemParams params =
        fusionParams(ProtocolKind::Multicast, 1, true);
    params.checkpoint.every = 20000000;  // 20 ms simulated
    params.checkpoint.dir = dir.path;

    SystemStats full = runOnce(params);
    auto ckpts = listCheckpoints(dir.path);
    ASSERT_GE(ckpts.size(), 1u)
        << "cadence too coarse: no snapshot was written";

    // Resume from the earliest snapshot (longest replayed suffix,
    // maximising the chance it caught pending chains/fused retries)
    // at the same shard count...
    SystemParams resume = params;
    resume.checkpoint.restore = true;
    resume.checkpoint.restorePath = ckpts.front().second;
    {
        auto workload = makeWorkload("barnes", params.nodes, 1, 0.25);
        System system(*workload, resume);
        SystemStats resumed = system.run();
        ASSERT_TRUE(system.restoredFromCheckpoint());
        expectFigureEqual(resumed, full);
    }

    // ...and across shard counts: a saved mid-chain event is re-split
    // into plain keyed deliveries, so a K=1 snapshot restores under
    // K=4 with identical figures.
    SystemParams cross =
        fusionParams(ProtocolKind::Multicast, 4, true);
    cross.checkpoint.every = params.checkpoint.every;
    cross.checkpoint.dir = dir.path;
    cross.checkpoint.restore = true;
    cross.checkpoint.restorePath = ckpts.front().second;
    {
        auto workload = makeWorkload("barnes", params.nodes, 1, 0.25);
        System system(*workload, cross);
        SystemStats crossed = system.run();
        ASSERT_TRUE(system.restoredFromCheckpoint());
        expectFigureEqual(crossed, full);
    }
}

// ---- 64-node broadcast snooping -------------------------------------------

/** The configs/fig6_scaling.conf machine under broadcast snooping: 64
 *  nodes, 4 hubs, clusters of 16, 15 ns switch legs. Every snoop fans
 *  out to 63 destinations, most of them passive. */
SystemParams
snoop64Params(unsigned shards, bool fuse)
{
    SystemParams params =
        fusionParams(ProtocolKind::Snooping, shards, fuse);
    params.nodes = 64;
    params.crossbar.topology.hubs = 4;
    params.crossbar.topology.cluster_size = 16;
    params.crossbar.topology.switch_link_ns = 15.0;
    params.functionalWarmupMisses = 4000;
    params.warmupInstrPerCpu = 1000;
    params.measureInstrPerCpu = 4000;
    return params;
}

TEST(ChainFusion, Snoop64FusedMatchesUnfused)
{
    SystemStats unfused = runOnce(snoop64Params(1, false));
    SystemStats fused = runOnce(snoop64Params(1, true));
    ASSERT_GT(unfused.misses, 1000u);
    expectFigureEqual(fused, unfused);
    EXPECT_EQ(fused.windowsRun, unfused.windowsRun);
    EXPECT_EQ(fused.barrierCrossings, unfused.barrierCrossings);
    EXPECT_LT(fused.calendarOps, unfused.calendarOps);
}

TEST(ChainFusion, Snoop64ShardCountsMatch)
{
    SystemStats k1 = runOnce(snoop64Params(1, true));
    for (unsigned shards : {2u, 4u}) {
        SCOPED_TRACE(shards);
        SystemStats k = runOnce(snoop64Params(shards, true));
        expectFigureEqual(k, k1);
        EXPECT_EQ(k.windowsRun, k1.windowsRun);
        EXPECT_EQ(k.barrierCrossings, k1.barrierCrossings);
    }
}

/**
 * Most remaining hops of any fused chain saved in a snapshot (0 when
 * it holds none). A pending-event record is (u64 when, u64 key, u16
 * domain) followed by the event's own save; a chain's save is (u8
 * tag, Message, u64 when, u32 hops, then per hop u32 dest, u64 key,
 * u16 domain), and its first hop repeats the record's when, key and
 * domain. Matching all of that rules out stray bytes elsewhere in the
 * payload.
 */
std::uint32_t
longestSavedChain(const std::string &path)
{
    std::string payload;
    if (!ckpt::readCheckpointFile(path, payload))
        return 0;
    auto at = [&payload](std::size_t pos, auto value) {
        std::memcpy(&value, payload.data() + pos, sizeof(value));
        return value;
    };
    constexpr std::size_t record = 8 + 8 + 2;
    constexpr std::size_t header = 1 + sizeof(Message) + 8 + 4;
    constexpr std::size_t hop = 4 + 8 + 2;
    const auto tag = static_cast<char>(ckpt::EventTag::XbarChain);
    std::uint32_t longest = 0;
    for (std::size_t i = record; i + header + hop <= payload.size();
         ++i) {
        if (payload[i] != tag)
            continue;
        const std::uint64_t when = at(i - record, std::uint64_t{});
        const std::uint64_t key = at(i - 10, std::uint64_t{});
        const std::uint16_t domain = at(i - 2, std::uint16_t{});
        const std::size_t tail = i + 1 + sizeof(Message);
        const std::uint32_t hops = at(tail + 8, std::uint32_t{});
        const std::size_t first = tail + 12;
        if (at(tail, std::uint64_t{}) != when || hops == 0 ||
            hops > maxNodes || at(first + 4, std::uint64_t{}) != key ||
            at(first + 12, std::uint16_t{}) != domain) {
            continue;
        }
        longest = std::max(longest, hops);
    }
    return longest;
}

TEST(ChainFusion, Snoop64LongChainCheckpointRestoresAtK1AndK4)
{
    TempDir dir;
    SystemParams params = snoop64Params(1, true);
    // Snapshots of this machine are ~35 MB; 30 us simulated between
    // them keeps the run to two or three.
    params.checkpoint.every = 30000000;
    params.checkpoint.dir = dir.path;
    SystemStats full = runOnce(params);

    // The earliest snapshot holding a chain longer than the 8 hops
    // the old fixed-size chain could carry.
    std::string snapshot;
    for (const auto &[tick, path] : listCheckpoints(dir.path)) {
        if (longestSavedChain(path) > 8) {
            snapshot = path;
            break;
        }
    }
    ASSERT_FALSE(snapshot.empty())
        << "no snapshot caught a chain of more than 8 hops in flight";

    for (unsigned shards : {1u, 4u}) {
        SCOPED_TRACE(shards);
        SystemParams resume = snoop64Params(shards, true);
        resume.checkpoint = params.checkpoint;
        resume.checkpoint.restore = true;
        resume.checkpoint.restorePath = snapshot;
        auto workload = makeWorkload("barnes", params.nodes, 1, 0.25);
        System system(*workload, resume);
        SystemStats resumed = system.run();
        ASSERT_TRUE(system.restoredFromCheckpoint());
        expectFigureEqual(resumed, full);
    }
}

} // namespace
} // namespace dsp
