/**
 * @file
 * End-to-end tests of the execution-driven system: latency
 * calibration against the paper's 112/180/242 ns triple, protocol
 * runtime/traffic ordering, retry behaviour, and determinism.
 */

#include <gtest/gtest.h>

#include <memory>

#include "system/system.hh"
#include "workload/region.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

/** Every processor scans its own cold blocks: all misses to memory. */
class ColdScanRegion : public Region
{
  public:
    ColdScanRegion(const Params &params, NodeId nodes)
        : Region(params, nodes), cursor_(nodes, 0)
    {
    }

    RegionRef
    gen(NodeId p, Rng &rng) override
    {
        std::uint64_t slice = blocks() / numNodes();
        // Stagger the cursors so concurrent scanners do not march on
        // the same home node in lockstep (slice is a multiple of the
        // node count, so aligned cursors would all share one home).
        std::uint64_t block = p * slice + (cursor_[p] + p) % slice;
        ++cursor_[p];
        return RegionRef{addrOf(block, rng), pcFor(rng), false};
    }

  private:
    std::vector<std::uint64_t> cursor_;
};

/**
 * Nodes 0 and 1 hammer writes on one shared block (pairwise
 * ping-pong); every other node hammers a private block (steady-state
 * hits). The c2c misses therefore all come from the pair.
 */
class PingPongRegion : public Region
{
  public:
    PingPongRegion(const Params &params, NodeId nodes)
        : Region(params, nodes)
    {
    }

    RegionRef
    gen(NodeId p, Rng &rng) override
    {
        // The shared block's home (block index 5 -> node 5) is
        // deliberately neither ping-pong endpoint, so minimal
        // destination sets are never accidentally sufficient.
        std::uint64_t block = p <= 1 ? 5 : p + 16;
        return RegionRef{addrOf(block, rng), pcFor(rng), true};
    }
};

template <typename RegionT>
std::unique_ptr<Workload>
scriptedWorkload(Addr bytes = 16 << 20)
{
    auto w = std::make_unique<Workload>("scripted", kNodes, 0.0, 1);
    Region::Params params;
    params.name = "scripted";
    params.base = 0x1000000;
    params.bytes = bytes;
    params.pcSites = 8;
    w->addRegion(std::make_unique<RegionT>(params, kNodes), 1.0);
    return w;
}

SystemParams
baseParams(ProtocolKind protocol,
           PredictorPolicy policy = PredictorPolicy::OwnerGroup)
{
    SystemParams params;
    params.nodes = kNodes;
    params.protocol = protocol;
    params.policy = policy;
    params.predictor.entries = 1024;
    params.warmupInstrPerCpu = 0;
    params.measureInstrPerCpu = 2000;
    // Fine-grained hit batching so contended tests interleave nodes
    // tightly (the default 500 ns quantum is tuned for throughput).
    params.cpu.quantum_ns = 50;
    return params;
}

TEST(SystemTiming, ColdScanMissesCost180nsUnderMulticast)
{
    auto workload = scriptedWorkload<ColdScanRegion>();
    SystemParams params =
        baseParams(ProtocolKind::Multicast, PredictorPolicy::Owner);
    System system(*workload, params);
    SystemStats stats = system.run();

    EXPECT_GT(stats.misses, 1000u);
    EXPECT_EQ(stats.indirections, 0u);
    EXPECT_EQ(stats.cacheToCache, 0u);
    // Every miss is a memory fetch (~180 ns plus small contention).
    EXPECT_GE(stats.avgMissLatencyNs, 168.0);  // local-home misses
    EXPECT_LE(stats.avgMissLatencyNs, 200.0);
}

TEST(SystemTiming, ColdScanIdenticalAcrossProtocols)
{
    // With no sharing, all three protocols see memory-latency misses;
    // runtimes agree within contention noise.
    std::vector<double> runtimes;
    for (ProtocolKind protocol :
         {ProtocolKind::Snooping, ProtocolKind::Directory,
          ProtocolKind::Multicast}) {
        auto workload = scriptedWorkload<ColdScanRegion>();
        System system(*workload, baseParams(protocol));
        runtimes.push_back(
            static_cast<double>(system.run().runtimeTicks));
    }
    EXPECT_NEAR(runtimes[1] / runtimes[0], 1.0, 0.05);
    EXPECT_NEAR(runtimes[2] / runtimes[0], 1.0, 0.05);
}

TEST(SystemTiming, PingPongSnoopingBeatsDirectory)
{
    SystemParams snoop_params = baseParams(ProtocolKind::Snooping);
    snoop_params.measureInstrPerCpu = 20000;
    auto snoop_workload = scriptedWorkload<PingPongRegion>();
    System snooping(*snoop_workload, snoop_params);
    SystemStats snoop = snooping.run();

    SystemParams dir_params = baseParams(ProtocolKind::Directory);
    dir_params.measureInstrPerCpu = 20000;
    auto dir_workload = scriptedWorkload<PingPongRegion>();
    System directory(*dir_workload, dir_params);
    SystemStats dir = directory.run();

    // Ping-pong writes are all cache-to-cache after the first: the
    // snooping system's direct transfers must beat the directory's
    // 3-hop indirections *per miss*. (Total runtime is not a fair
    // comparison in this saturated microbenchmark: faster
    // invalidations also mean shorter hit runs between misses.)
    EXPECT_LT(snoop.avgMissLatencyNs, dir.avgMissLatencyNs);
    EXPECT_GT(dir.indirections, dir.misses / 2);
    EXPECT_EQ(snoop.indirections, 0u);
    // Snooping must use more request traffic per miss.
    EXPECT_GT(static_cast<double>(snoop.requestMessages) /
                  static_cast<double>(snoop.misses),
              static_cast<double>(dir.requestMessages) /
                  static_cast<double>(dir.misses));
}

TEST(SystemTiming, PingPongLatenciesMatchCalibration)
{
    SystemParams params = baseParams(ProtocolKind::Snooping);
    params.measureInstrPerCpu = 20000;
    auto workload = scriptedWorkload<PingPongRegion>();
    System snooping(*workload, params);
    SystemStats stats = snooping.run();
    // Ping-pong misses under snooping are ~112 ns cache-to-cache
    // transfers plus serialization queueing at the hot block.
    EXPECT_GE(stats.avgMissLatencyNs, 100.0);
    EXPECT_GT(stats.cacheToCache, stats.misses / 2);
}

TEST(SystemTiming, DirectoryPingPongNear242)
{
    SystemParams params = baseParams(ProtocolKind::Directory);
    params.measureInstrPerCpu = 20000;
    auto workload = scriptedWorkload<PingPongRegion>();
    System directory(*workload, params);
    SystemStats stats = directory.run();
    // 3-hop transfers: at least the 242 ns calibration on average
    // (queueing only adds).
    EXPECT_GE(stats.avgMissLatencyNs, 180.0);
}

TEST(SystemTiming, MulticastWithBroadcastMatchesSnooping)
{
    SystemParams pa = baseParams(ProtocolKind::Snooping);
    pa.measureInstrPerCpu = 20000;
    auto wa = scriptedWorkload<PingPongRegion>();
    System snooping(*wa, pa);
    SystemStats snoop = snooping.run();

    SystemParams pb = baseParams(ProtocolKind::Multicast,
                                 PredictorPolicy::AlwaysBroadcast);
    pb.measureInstrPerCpu = 20000;
    auto wb = scriptedWorkload<PingPongRegion>();
    System multicast(*wb, pb);
    SystemStats multi = multicast.run();

    EXPECT_EQ(multi.indirections, 0u);
    double ratio = static_cast<double>(multi.runtimeTicks) /
                   static_cast<double>(snoop.runtimeTicks);
    EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(SystemTiming, MulticastMinimalRetriesSharingMisses)
{
    SystemParams params = baseParams(ProtocolKind::Multicast,
                                     PredictorPolicy::AlwaysMinimal);
    params.measureInstrPerCpu = 20000;
    auto workload = scriptedWorkload<PingPongRegion>();
    System multicast(*workload, params);
    SystemStats stats = multicast.run();
    // Every ping-pong miss needs the other owner: minimal sets are
    // insufficient, so the directory retries (indirections).
    EXPECT_GT(stats.retries, stats.misses / 2);
    EXPECT_GT(stats.indirections, stats.misses / 2);
}

TEST(SystemTiming, OwnerPredictorLearnsPingPong)
{
    auto workload = scriptedWorkload<PingPongRegion>();
    SystemParams params =
        baseParams(ProtocolKind::Multicast, PredictorPolicy::Owner);
    params.warmupInstrPerCpu = 10000;
    params.measureInstrPerCpu = 20000;
    System system(*workload, params);
    SystemStats stats = system.run();
    // After warmup, owners are predicted: far fewer indirections
    // than AlwaysMinimal's ~100%.
    EXPECT_LT(static_cast<double>(stats.indirections),
              0.5 * static_cast<double>(stats.misses));
}

TEST(SystemTiming, DeterministicReruns)
{
    auto run_once = []() {
        auto workload = makeWorkload("oltp", kNodes, 5, 0.05);
        SystemParams params = baseParams(ProtocolKind::Multicast);
        params.measureInstrPerCpu = 5000;
        System system(*workload, params);
        return system.run();
    };
    SystemStats a = run_once();
    SystemStats b = run_once();
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.indirections, b.indirections);
}

TEST(SystemTiming, TrafficOrderingAcrossProtocols)
{
    auto run_protocol = [](ProtocolKind protocol,
                           PredictorPolicy policy) {
        auto workload = makeWorkload("oltp", kNodes, 6, 0.05);
        SystemParams params = baseParams(protocol, policy);
        params.warmupInstrPerCpu = 3000;
        params.measureInstrPerCpu = 5000;
        System system(*workload, params);
        return system.run();
    };

    SystemStats snoop =
        run_protocol(ProtocolKind::Snooping, PredictorPolicy::Owner);
    SystemStats dir =
        run_protocol(ProtocolKind::Directory, PredictorPolicy::Owner);
    SystemStats owner =
        run_protocol(ProtocolKind::Multicast, PredictorPolicy::Owner);

    // Per-miss traffic: snooping > owner-multicast > nothing-below-
    // directory (owner sits between the anchors).
    EXPECT_GT(snoop.trafficPerMiss(), owner.trafficPerMiss());
    EXPECT_GE(owner.trafficPerMiss(), dir.trafficPerMiss() * 0.9);
}

TEST(SystemTiming, DetailedCpuIsFasterThanSimple)
{
    auto run_model = [](CpuModel model) {
        auto workload = makeWorkload("oltp", kNodes, 7, 0.05);
        SystemParams params = baseParams(ProtocolKind::Snooping);
        params.cpuModel = model;
        params.measureInstrPerCpu = 5000;
        System system(*workload, params);
        return system.run();
    };
    SystemStats simple = run_model(CpuModel::Simple);
    SystemStats detailed = run_model(CpuModel::Detailed);
    // The OoO window overlaps misses: strictly faster end-to-end.
    EXPECT_LT(detailed.runtimeTicks, simple.runtimeTicks);
}

TEST(SystemTiming, StatsAreInternallyConsistent)
{
    auto workload = makeWorkload("apache", kNodes, 8, 0.05);
    SystemParams params = baseParams(ProtocolKind::Multicast);
    params.measureInstrPerCpu = 5000;
    System system(*workload, params);
    SystemStats stats = system.run();

    EXPECT_GT(stats.misses, 0u);
    EXPECT_LE(stats.indirections, stats.misses);
    EXPECT_LE(stats.cacheToCache + stats.upgrades, stats.misses);
    EXPECT_GT(stats.trafficBytes, 0u);
    EXPECT_GT(stats.runtimeTicks, 0u);
    EXPECT_GE(stats.avgMissLatencyNs, 50.0);
    EXPECT_EQ(stats.instructions, 5000u * kNodes);
}

/** Pairwise read sharing: producer writes, consumer reads. */
class ProducerReaderRegion : public Region
{
  public:
    ProducerReaderRegion(const Params &params, NodeId nodes)
        : Region(params, nodes), toggles_(nodes, 0)
    {
    }

    RegionRef
    gen(NodeId p, Rng &rng) override
    {
        // Node 0 writes block 7; node 1 reads it; others touch
        // private blocks. Home of block 7 is node 7 (uninvolved).
        if (p == 0)
            return RegionRef{addrOf(7, rng), pcFor(rng), true};
        if (p == 1)
            return RegionRef{addrOf(7, rng), pcFor(rng), false};
        return RegionRef{addrOf(p + 16, rng), pcFor(rng), false};
    }

  private:
    std::vector<std::uint64_t> toggles_;
};

TEST(SystemTiming, DirectoryThreeHopReadPath)
{
    // Consumer reads of a dirty block under the directory protocol
    // take the forward path: request -> home -> owner -> data, 242 ns
    // uncontended.
    SystemParams params = baseParams(ProtocolKind::Directory);
    params.measureInstrPerCpu = 20000;
    auto workload = scriptedWorkload<ProducerReaderRegion>();
    System system(*workload, params);
    SystemStats stats = system.run();
    EXPECT_GT(stats.cacheToCache, 10u);
    EXPECT_GT(stats.indirections, 10u);
    // Mixture of 242 ns 3-hop transfers and cheaper upgrades.
    EXPECT_GE(stats.avgMissLatencyNs, 110.0);
}

TEST(SystemTiming, CapacityPressureProducesWritebacks)
{
    // Tiny L2s force dirty evictions; the writeback path must flow
    // (and memory must keep serving the blocks afterwards).
    auto workload = makeWorkload("oltp", kNodes, 9, 0.05);
    SystemParams params = baseParams(ProtocolKind::Multicast);
    params.caches.l1 = CacheGeometry{8 * 1024, 2};
    params.caches.l2 = CacheGeometry{64 * 1024, 4};
    params.measureInstrPerCpu = 20000;
    System system(*workload, params);
    SystemStats stats = system.run();
    EXPECT_GT(stats.writebacks, 50u);
    EXPECT_GT(stats.misses, 500u);
}

TEST(SystemTiming, ProtocolNames)
{
    EXPECT_EQ(toString(ProtocolKind::Snooping), "snooping");
    EXPECT_EQ(toString(ProtocolKind::Directory), "directory");
    EXPECT_EQ(toString(ProtocolKind::Multicast), "multicast");
}

/**
 * Nodes 0/1 ping-pong writes on one block X *and* stream writes over
 * private blocks mapping to X's L2 set, so X is repeatedly evicted
 * dirty while the other node's GETX for X is in flight -- the
 * stale-writeback race window of the hub's one-hop eviction notice.
 */
class EvictRaceRegion : public Region
{
  public:
    EvictRaceRegion(const Params &params, NodeId nodes,
                    std::uint64_t l2_sets)
        : Region(params, nodes), sets_(l2_sets), procs_(nodes)
    {
    }

    RegionRef
    gen(NodeId p, Rng &rng) override
    {
        std::uint32_t &step = procs_[p].step;
        if (p > 1)
            return RegionRef{addrOf(2048 + p, rng), pcFor(rng), false};
        std::uint64_t idx =
            step == 0 ? 0 : (1 + p * 8 + step) * sets_;
        step = (step + 1) % 6;
        return RegionRef{addrOf(idx, rng), pcFor(rng), true};
    }

  private:
    struct Proc {
        std::uint32_t step = 0;
    };
    std::uint64_t sets_;
    std::vector<Proc> procs_;
};

/**
 * Regression for the stale-writeback race: the sharing tracker learns
 * of an owned eviction one link hop late, and a GETX for the victim
 * can be ordered inside that window. The hub must drop the stale
 * notice (like hardware drops a writeback that lost the race), not
 * trip the tracker's owner assertion -- and the tolerant behaviour
 * must stay deterministic and shard-count independent.
 */
TEST(SystemTiming, StaleWritebackRaceStaysDeterministic)
{
    auto run_once = [](unsigned shards) {
        SystemParams params = baseParams(ProtocolKind::Snooping);
        params.caches.l1 = CacheGeometry{4 * 1024, 1};
        params.caches.l2 = CacheGeometry{32 * 1024, 4};
        params.measureInstrPerCpu = 40000;
        params.shards = shards;

        auto w = std::make_unique<Workload>("race", kNodes, 0.4, 9);
        Region::Params rp;
        rp.name = "race";
        rp.base = 0x1000000;
        std::uint64_t sets = params.caches.l2.sets();
        rp.bytes = 64ull * (2048 + 64 + 20 * sets);
        rp.pcSites = 4;
        w->addRegion(
            std::make_unique<EvictRaceRegion>(rp, kNodes, sets), 1.0);

        System system(*w, params);
        return system.run();
    };

    SystemStats a = run_once(1);
    // Heavy dirty-eviction traffic on a block with in-flight GETX:
    // the scenario the one-hop notice window is exposed to.
    EXPECT_GT(a.writebacks, 10000u);
    EXPECT_GT(a.cacheToCache, 1000u);

    SystemStats b = run_once(1);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);

    SystemStats c = run_once(4);
    EXPECT_EQ(a.misses, c.misses);
    EXPECT_EQ(a.runtimeTicks, c.runtimeTicks);
    EXPECT_EQ(a.trafficBytes, c.trafficBytes);
    EXPECT_EQ(a.writebacks, c.writebacks);
}

/**
 * Data-availability chaining regression (ROADMAP "data-availability
 * chaining"): with expected-completion ticks recorded at the ordering
 * point, an owner cannot supply a block before its own fill lands and
 * memory cannot supply before an in-flight writeback arrives. The
 * write ping-pong workload is the worst case -- back-to-back GETX
 * where ownership moves while the previous fill is still on the wire
 * -- so its Figure-7-style latency must shift up, deterministically.
 */
// ------------------------------------------------- scaled machines

SystemParams
scaledParams(NodeId nodes, unsigned hubs = 1, unsigned shards = 1)
{
    SystemParams params;
    params.nodes = nodes;
    params.protocol = ProtocolKind::Multicast;
    params.policy = PredictorPolicy::OwnerGroup;
    params.predictor.entries = 1024;
    params.warmupInstrPerCpu = 0;
    params.measureInstrPerCpu = 1500;
    params.shards = shards;
    params.crossbar.topology.hubs = hubs;
    return params;
}

/**
 * 64-node regression for the latent 16-node assumptions fixed during
 * parameterization: txn ids pack (seq << 16) | node (the 8-bit field
 * collided at 256 nodes), and the oracle stages per-domain records in
 * nodes + hubs buffers. Arming the oracle makes both checks real --
 * any txn-id collision or mis-bucketed record surfaces as a coherence
 * violation, which raiseOracleViolation turns into a panic.
 */
TEST(SystemScaling, SixtyFourNodesMultiHubOracleClean)
{
    auto workload = makeWorkload("oltp", 64, 11, 0.05);
    SystemParams params = scaledParams(64, /* hubs */ 4);
    params.verify.oracle = true;
    System system(*workload, params);
    SystemStats stats = system.run();
    EXPECT_EQ(stats.instructions, 1500u * 64u);
    EXPECT_GT(stats.misses, 0u);
}

/**
 * With the ordering gap disabled, hub interleaving is pure
 * partitioning: the order tick equals the hub-arrival tick whatever
 * hub a block hashes to, so H=4 must reproduce the H=1 figure
 * statistics bit-for-bit at 64 nodes. (With a nonzero gap the tiers
 * legitimately differ -- four hubs serialize a quarter of the blocks
 * each, relaxing the spacing a single hub would impose.)
 */
TEST(SystemScaling, MultiHubMatchesSingleHubBitForBit)
{
    auto run_once = [](unsigned hubs) {
        auto workload = makeWorkload("apache", 64, 12, 0.05);
        SystemParams params = scaledParams(64, hubs);
        params.crossbar.ordering_gap_ns = 0.0;
        System system(*workload, params);
        return system.run();
    };
    SystemStats one = run_once(1);
    SystemStats four = run_once(4);
    EXPECT_EQ(one.runtimeTicks, four.runtimeTicks);
    EXPECT_EQ(one.misses, four.misses);
    EXPECT_EQ(one.retries, four.retries);
    EXPECT_EQ(one.trafficBytes, four.trafficBytes);
    EXPECT_EQ(one.indirections, four.indirections);
    EXPECT_EQ(one.cacheToCache, four.cacheToCache);
    EXPECT_EQ(one.writebacks, four.writebacks);
}

/** The determinism contract at scale: K=4 shards over a 64-node
 *  4-hub machine match K=1 bit-for-bit on every figure statistic. */
TEST(SystemScaling, ShardedBitEquivalenceAt64Nodes)
{
    auto run_once = [](unsigned shards) {
        auto workload = makeWorkload("oltp", 64, 13, 0.05);
        System system(*workload,
                      scaledParams(64, /* hubs */ 4, shards));
        return system.run();
    };
    SystemStats k1 = run_once(1);
    SystemStats k4 = run_once(4);
    EXPECT_EQ(k1.runtimeTicks, k4.runtimeTicks);
    EXPECT_EQ(k1.misses, k4.misses);
    EXPECT_EQ(k1.retries, k4.retries);
    EXPECT_EQ(k1.trafficBytes, k4.trafficBytes);
    EXPECT_EQ(k1.indirections, k4.indirections);
    EXPECT_EQ(k1.writebacks, k4.writebacks);
}

/**
 * The passive-delivery predicate's truth table. The coherence oracle
 * cannot catch a predicate that wrongly calls an acting destination
 * passive: its invalidation witness sits behind the predicate. So the
 * rules are pinned here, case by case.
 */
TEST(SystemTiming, PassiveDeliveryTruthTable)
{
    auto workload = scriptedWorkload<PingPongRegion>();
    System snooping(*workload, baseParams(ProtocolKind::Snooping));

    Message getx;
    getx.kind = MessageKind::Request;
    getx.type = RequestType::GetExclusive;
    getx.addr = 0x1000000 + 7 * blockBytes;
    getx.attempt = 0;
    getx.echo.requester = 1;
    getx.echo.responder = 2;
    getx.echo.required = DestinationSet::of(2);
    getx.echo.required.add(3);
    getx.echo.resolved = true;
    getx.echo.resolvedAttempt = 0;
    const NodeId home = homeOf(getx.block(), kNodes);
    ASSERT_GT(home, 3u);
    NodeId bystander = home + 1 < kNodes ? home + 1 : 4;
    ASSERT_NE(bystander, home);

    // Resolved GETX: requester, home, responder and every required
    // sharer act; anyone else is passive.
    EXPECT_FALSE(snooping.passiveDelivery(getx, 1));
    EXPECT_FALSE(snooping.passiveDelivery(getx, home));
    EXPECT_FALSE(snooping.passiveDelivery(getx, 2));
    EXPECT_FALSE(snooping.passiveDelivery(getx, 3));
    EXPECT_TRUE(snooping.passiveDelivery(getx, bystander));

    // A GETS invalidates no one: only its responder acts.
    Message gets = getx;
    gets.type = RequestType::GetShared;
    EXPECT_FALSE(snooping.passiveDelivery(gets, 2));
    EXPECT_TRUE(snooping.passiveDelivery(gets, 3));

    // An attempt that did not resolve carries no snoop duty, but the
    // requester and the home still act on it.
    Message insufficient = getx;
    insufficient.echo.resolvedAttempt = 1;
    EXPECT_TRUE(snooping.passiveDelivery(insufficient, 2));
    EXPECT_TRUE(snooping.passiveDelivery(insufficient, 3));
    EXPECT_FALSE(snooping.passiveDelivery(insufficient, 1));
    EXPECT_FALSE(snooping.passiveDelivery(insufficient, home));
    Message retry = getx;
    retry.kind = MessageKind::Retry;
    EXPECT_TRUE(snooping.passiveDelivery(retry, bystander));

    // Only ordered messages can be passive.
    Message data = getx;
    data.kind = MessageKind::Data;
    EXPECT_FALSE(snooping.passiveDelivery(data, bystander));

    // Multicast: every destination trains its predictor.
    auto mc_workload = scriptedWorkload<PingPongRegion>();
    System multicast(*mc_workload, baseParams(ProtocolKind::Multicast));
    EXPECT_FALSE(multicast.passiveDelivery(getx, bystander));
    EXPECT_FALSE(multicast.passiveDelivery(insufficient, 3));
}

/** SystemParams::shards is clamped to [1, min(nodes, 64)]: asking a
 *  128-node machine for 100 shards used to abort in the kernel's
 *  constructor ("bad shard count 100"); it now builds at 64. */
TEST(SystemScaling, ShardCountClampsToTheKernelCeiling)
{
    auto shards_for = [](NodeId nodes, unsigned shards) {
        SystemParams params;
        params.nodes = nodes;
        params.shards = shards;
        return System::shardCountFor(params);
    };
    EXPECT_EQ(shards_for(16, 0), 1u);
    EXPECT_EQ(shards_for(16, 3), 3u);
    EXPECT_EQ(shards_for(16, 300), 16u);
    EXPECT_EQ(shards_for(128, 64), 64u);
    EXPECT_EQ(shards_for(128, 100), ShardedKernel::maxShards);
    EXPECT_EQ(shards_for(256, 1000), ShardedKernel::maxShards);

    auto workload = makeWorkload("oltp", 128, 14, 0.05);
    System system(*workload, scaledParams(128, /* hubs */ 4, 100));
}

/**
 * A hierarchical 64-node machine (4 clusters of 16 behind a slow
 * switch tier: 10 ns cluster links, 40 ns switch links) runs to
 * completion and pays for cross-cluster transfers. Most sharer pairs
 * straddle clusters (48 of every 64 peers are remote), so the 100 ns
 * cross-cluster hop -- against the flat machine's uniform 50 ns --
 * must raise average miss latency even though intra-cluster hops got
 * cheaper (20 ns).
 */
TEST(SystemScaling, HierarchicalSwitchTierRaisesCrossClusterLatency)
{
    auto run_once = [](bool hierarchical) {
        auto workload = makeWorkload("apache", 64, 14, 0.05);
        SystemParams params = scaledParams(64, /* hubs */ 2);
        if (hierarchical) {
            params.crossbar.topology.cluster_size = 16;
            params.crossbar.topology.cluster_link_ns = 10.0;
            params.crossbar.topology.switch_link_ns = 40.0;
        }
        System system(*workload, params);
        return system.run();
    };
    SystemStats flat = run_once(false);
    SystemStats hier = run_once(true);
    EXPECT_GT(flat.misses, 0u);
    EXPECT_GT(hier.avgMissLatencyNs, flat.avgMissLatencyNs);
}

TEST(SystemTiming, DataChainingShiftsPingPongLatency)
{
    auto run_once = [](bool chaining) {
        SystemParams params = baseParams(ProtocolKind::Snooping);
        params.measureInstrPerCpu = 20000;
        params.dataChaining = chaining;
        auto workload = scriptedWorkload<PingPongRegion>();
        System system(*workload, params);
        return system.run();
    };

    SystemStats chained = run_once(true);
    SystemStats unchained = run_once(false);

    // Chaining only ever delays data responses: the shift is strictly
    // upward, visible on this workload, and bounded (an extra supply
    // wait is at most one miss round-trip).
    EXPECT_GT(chained.avgMissLatencyNs, unchained.avgMissLatencyNs);
    EXPECT_LT(chained.avgMissLatencyNs,
              2.0 * unchained.avgMissLatencyNs + 100.0);
    EXPECT_GE(chained.runtimeTicks, unchained.runtimeTicks);
    // The functional outcome is unchanged -- same sharing behaviour,
    // only timing moves.
    EXPECT_GT(chained.cacheToCache, chained.misses / 2);

    // Pin the shift: rerunning either config reproduces its latency
    // bit-for-bit (the chained tick arithmetic is all-integer).
    SystemStats chained2 = run_once(true);
    EXPECT_EQ(chained.avgMissLatencyNs, chained2.avgMissLatencyNs);
    EXPECT_EQ(chained.runtimeTicks, chained2.runtimeTicks);
    EXPECT_EQ(chained.misses, chained2.misses);
}

} // namespace
} // namespace dsp
