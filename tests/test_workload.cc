/**
 * @file
 * Tests for the Zipf samplers, sharing-pattern regions, workload
 * mixtures, and the six Table 1 presets.
 */

#include <gtest/gtest.h>

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "sim/logging.hh"
#include "workload/presets.hh"
#include "workload/region.hh"
#include "workload/workload.hh"
#include "workload/zipf.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

// ------------------------------------------------------------------- zipf

TEST(Zipf, UniformWhenThetaZero)
{
    ZipfSampler z(10, 0.0);
    Rng rng(1);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 10000; ++i)
        counts[z.sample(rng)]++;
    for (int c : counts) {
        EXPECT_GT(c, 700);
        EXPECT_LT(c, 1300);
    }
}

TEST(Zipf, SkewFavoursLowRanks)
{
    ZipfSampler z(1000, 0.9);
    Rng rng(2);
    int head = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        head += z.sample(rng) < 10;
    // Rank 0-9 should take far more than the uniform 1%.
    EXPECT_GT(head, n / 20);
}

TEST(Zipf, HeadMassMonotoneInTheta)
{
    ZipfSampler flat(10000, 0.2);
    ZipfSampler steep(10000, 0.95);
    EXPECT_LT(flat.headMass(100), steep.headMass(100));
    EXPECT_DOUBLE_EQ(flat.headMass(10000), 1.0);
    EXPECT_DOUBLE_EQ(flat.headMass(0), 0.0);
}

TEST(Zipf, SamplesStayInRange)
{
    ZipfSampler z(7, 1.2);
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(z.sample(rng), 7u);
}

TEST(Zipf, InvalidParamsPanic)
{
    PanicGuard guard;
    EXPECT_THROW(ZipfSampler(0, 0.5), std::runtime_error);
    EXPECT_THROW(ZipfSampler(10, -0.1), std::runtime_error);
    EXPECT_THROW(ZipfSampler(10, 2.5), std::runtime_error);
}

TEST(WorkingSet, HotProbControlsHitFraction)
{
    WorkingSetSampler s(100000, 1000, 0.99);
    Rng rng(4);
    int hot = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hot += s.sample(rng) < 1000;
    EXPECT_NEAR(hot / static_cast<double>(n), 0.99, 0.01);
}

TEST(WorkingSet, ColdTailCoversWholeRegion)
{
    WorkingSetSampler s(1000, 10, 0.0);  // always cold
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = s.sample(rng);
        ASSERT_GE(v, 10u);
        ASSERT_LT(v, 1000u);
        seen.insert(v);
    }
    EXPECT_GT(seen.size(), 900u);
}

TEST(WorkingSet, HotLargerThanRegionDegenerates)
{
    WorkingSetSampler s(10, 100, 0.5);
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        ASSERT_LT(s.sample(rng), 10u);
}

TEST(ScatterRank, IsAPermutationOverClusters)
{
    const std::uint64_t blocks = 1024;
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < blocks; ++r)
        seen.insert(scatterRank(r, blocks, 16));
    EXPECT_EQ(seen.size(), blocks);
}

TEST(ScatterRank, KeepsRunsWithinMacroblocks)
{
    // Ranks within the same 16-block run stay contiguous.
    std::uint64_t base = scatterRank(32, 4096, 16);
    for (std::uint64_t i = 1; i < 16; ++i)
        EXPECT_EQ(scatterRank(32 + i, 4096, 16), base + i);
}

// ----------------------------------------------------------------- regions

Region::Params
regionParams(Addr base, Addr bytes, std::uint32_t pcs = 64)
{
    Region::Params p;
    p.name = "test";
    p.base = base;
    p.bytes = bytes;
    p.pcSites = pcs;
    return p;
}

TEST(PrivateRegion, AddressesStayInOwnSlice)
{
    PrivateRegion region(regionParams(0x100000, 1 << 20), kNodes,
                         PrivateRegion::Config{64, 0.9, 0.3, 0.1, 8,
                                               4});
    Rng rng(7);
    Addr slice = (1 << 20) / kNodes;
    for (NodeId p = 0; p < kNodes; ++p) {
        for (int i = 0; i < 500; ++i) {
            RegionRef ref = region.gen(p, rng);
            ASSERT_GE(ref.addr, 0x100000u + p * slice);
            ASSERT_LT(ref.addr, 0x100000u + (p + 1) * slice);
        }
    }
}

TEST(ReadMostlyRegion, WriteFractionRespected)
{
    ReadMostlyRegion region(
        regionParams(0x200000, 1 << 20), kNodes,
        ReadMostlyRegion::Config{1024, 0.99, 0.05});
    Rng rng(8);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += region.gen(i % kNodes, rng).write;
    EXPECT_NEAR(writes / static_cast<double>(n), 0.05, 0.01);
}

TEST(MigratoryRegion, BurstReadsThenWrites)
{
    MigratoryRegion region(regionParams(0x300000, 1 << 20), kNodes,
                           MigratoryRegion::Config{2, 6, 0.5, 0.0});
    Rng rng(9);
    // One processor's burst: first half reads, second half writes.
    std::vector<bool> writes;
    for (int i = 0; i < 6; ++i)
        writes.push_back(region.gen(0, rng).write);
    EXPECT_FALSE(writes[0]);
    EXPECT_FALSE(writes[1]);
    EXPECT_FALSE(writes[2]);
    EXPECT_TRUE(writes[3]);
    EXPECT_TRUE(writes[4]);
    EXPECT_TRUE(writes[5]);
}

TEST(MigratoryRegion, BurstStaysOnOneItem)
{
    MigratoryRegion region(regionParams(0x300000, 1 << 20), kNodes,
                           MigratoryRegion::Config{2, 6, 0.5, 0.0});
    Rng rng(10);
    std::set<std::uint64_t> items;
    for (int i = 0; i < 6; ++i) {
        RegionRef ref = region.gen(1, rng);
        items.insert((ref.addr - 0x300000) / (2 * blockBytes));
    }
    EXPECT_EQ(items.size(), 1u);
}

TEST(ProducerConsumerRegion, PassesAreSequentialAndTyped)
{
    ProducerConsumerRegion region(
        regionParams(0x400000, 1 << 20), kNodes,
        ProducerConsumerRegion::Config{16, 1, 0.0, 1});  // produce only
    Rng rng(11);
    // With consumeFraction 0, processor 2 always writes its own
    // buffers, one block at a time, sequentially.
    std::vector<BlockId> blocks;
    for (int i = 0; i < 16; ++i) {
        RegionRef ref = region.gen(2, rng);
        EXPECT_TRUE(ref.write);
        blocks.push_back(blockOf(ref.addr));
    }
    for (std::size_t i = 1; i < blocks.size(); ++i)
        EXPECT_EQ(blocks[i], blocks[i - 1] + 1);
}

TEST(ProducerConsumerRegion, ConsumerReadsNeighbourBuffer)
{
    ProducerConsumerRegion region(
        regionParams(0x400000, 1 << 20), kNodes,
        ProducerConsumerRegion::Config{16, 1, 1.0, 1});  // consume only
    Rng rng(12);
    RegionRef ref = region.gen(2, rng);
    EXPECT_FALSE(ref.write);
    // Buffer index modulo nodes identifies the owner: must be the
    // immediate neighbour (2 + 1).
    std::uint64_t buffer =
        (blockOf(ref.addr) - blockOf(0x400000)) / 16;
    EXPECT_EQ(buffer % kNodes, 3u);
}

TEST(GroupRegion, MembersStayInGroupSlice)
{
    GroupRegion region(regionParams(0x500000, 1 << 20), kNodes,
                       GroupRegion::Config{4, 256, 0.9, 0.3});
    Rng rng(13);
    Addr slice = (1 << 20) / 4;  // 4 groups
    for (NodeId p = 0; p < kNodes; ++p) {
        NodeId group = p / 4;
        for (int i = 0; i < 200; ++i) {
            RegionRef ref = region.gen(p, rng);
            ASSERT_GE(ref.addr, 0x500000u + group * slice);
            ASSERT_LT(ref.addr, 0x500000u + (group + 1) * slice);
        }
    }
}

TEST(HotRegion, StaysTinyAndWriteHeavy)
{
    HotRegion region(regionParams(0x600000, 64 * 1024), kNodes,
                     HotRegion::Config{0.8, 0.5});
    Rng rng(14);
    int writes = 0;
    for (int i = 0; i < 10000; ++i) {
        RegionRef ref = region.gen(i % kNodes, rng);
        ASSERT_GE(ref.addr, 0x600000u);
        ASSERT_LT(ref.addr, 0x600000u + 64 * 1024);
        writes += ref.write;
    }
    EXPECT_NEAR(writes / 10000.0, 0.5, 0.05);
}

TEST(Region, PcsComeFromTheRegionPool)
{
    HotRegion region(regionParams(0x600000, 64 * 1024, 32), kNodes,
                     HotRegion::Config{0.8, 0.5});
    Rng rng(15);
    std::set<Addr> pcs;
    for (int i = 0; i < 5000; ++i)
        pcs.insert(region.gen(0, rng).pc);
    EXPECT_LE(pcs.size(), 32u);
    EXPECT_GT(pcs.size(), 10u);
}

// ---------------------------------------------------------------- workload

TEST(Workload, DeterministicPerSeed)
{
    auto make = [](std::uint64_t seed) {
        return makeWorkload("oltp", kNodes, seed, 0.05);
    };
    auto a = make(42), b = make(42), c = make(43);
    bool all_same = true, any_diff = false;
    for (int i = 0; i < 1000; ++i) {
        NodeId p = static_cast<NodeId>(i % kNodes);
        MemRef ra = a->next(p), rb = b->next(p), rc = c->next(p);
        all_same &= ra.addr == rb.addr && ra.pc == rb.pc &&
                    ra.write == rb.write && ra.work == rb.work;
        any_diff |= ra.addr != rc.addr;
    }
    EXPECT_TRUE(all_same);
    EXPECT_TRUE(any_diff);
}

TEST(Workload, MeanWorkApproximatelyHonoured)
{
    Workload w("test", kNodes, 4.0, 1);
    w.addRegion(std::make_unique<HotRegion>(
                    regionParams(0x1000000, 64 * 1024), kNodes,
                    HotRegion::Config{0.5, 0.5}),
                1.0);
    double total = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += w.next(static_cast<NodeId>(i % kNodes)).work;
    EXPECT_NEAR(total / n, 4.0, 0.25);
}

TEST(Workload, AllPresetsConstructAndRun)
{
    for (const std::string &name : workloadNames()) {
        auto w = makeWorkload(name, kNodes, 1, 0.05);
        ASSERT_EQ(w->name(), name);
        ASSERT_EQ(w->numNodes(), kNodes);
        ASSERT_GE(w->regionCount(), 4u);
        EXPECT_GT(w->totalFootprint(), 0u);
        for (int i = 0; i < 2000; ++i) {
            MemRef ref = w->next(static_cast<NodeId>(i % kNodes));
            ASSERT_NE(ref.addr, 0u);
            ASSERT_NE(ref.pc, 0u);
        }
    }
}

/**
 * Regression for the 256-node scaling sweep: at scale 0.05 apache's
 * netbufs pool used to round to zero buffers per node once the node
 * count outgrew the generic 64 KB footprint floor, panicking in the
 * ProducerConsumerRegion constructor. Every preset must construct
 * and generate references on every machine size the sweep supports.
 */
TEST(Workload, AllPresetsScaleTo256Nodes)
{
    for (NodeId nodes : {NodeId(64), NodeId(256)}) {
        for (const std::string &name : workloadNames()) {
            auto w = makeWorkload(name, nodes, 1, 0.05);
            ASSERT_EQ(w->numNodes(), nodes);
            for (int i = 0; i < 2000; ++i) {
                MemRef ref = w->next(static_cast<NodeId>(i % nodes));
                ASSERT_NE(ref.addr, 0u);
            }
        }
    }
}

TEST(Workload, UnknownPresetFatals)
{
    PanicGuard guard;
    EXPECT_THROW(makeWorkload("nosuch", kNodes, 1, 1.0),
                 std::runtime_error);
}

TEST(Workload, PresetFootprintOrderingMatchesTable2)
{
    // specjbb > slashcode > {oltp, ocean, apache} > barnes.
    std::unordered_map<std::string, Addr> fp;
    for (const std::string &name : workloadNames())
        fp[name] = makeWorkload(name, kNodes, 1, 1.0)->totalFootprint();
    EXPECT_GT(fp["specjbb"], fp["slashcode"]);
    EXPECT_GT(fp["slashcode"], fp["oltp"]);
    EXPECT_GT(fp["oltp"], fp["barnes"]);
    EXPECT_GT(fp["ocean"], fp["barnes"]);
    EXPECT_GT(fp["apache"], fp["barnes"]);
}

TEST(Workload, ScaleShrinksFootprint)
{
    auto full = makeWorkload("apache", kNodes, 1, 1.0);
    auto quarter = makeWorkload("apache", kNodes, 1, 0.25);
    EXPECT_LT(quarter->totalFootprint(), full->totalFootprint());
}

// --------------------------------------------------------- ring pipeline

/**
 * A HotRegion that sleeps now and then: it stalls whichever thread
 * generates from it (the producer), never changing a draw.
 */
class SlowHotRegion : public HotRegion
{
  public:
    using HotRegion::HotRegion;

    RegionRef
    gen(NodeId p, Rng &rng) override
    {
        if (calls_.fetch_add(1, std::memory_order_relaxed) % 64 == 63)
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        return HotRegion::gen(p, rng);
    }

  private:
    /** Shared by every processor's draws, which run on more than one
     *  thread (the producer's, and a consumer's when its ring ran
     *  dry). */
    std::atomic<std::uint64_t> calls_{0};
};

/** The regions of the pipeline tests' mixture: every kind with
 *  per-processor state, plus a stateless one (optionally slow). */
std::vector<std::unique_ptr<Region>>
pipelineRegions(bool slow)
{
    std::vector<std::unique_ptr<Region>> regions;
    regions.push_back(std::make_unique<PrivateRegion>(
        regionParams(0x100000, 1 << 20), kNodes,
        PrivateRegion::Config{64, 0.9, 0.3, 0.1, 8, 4}));
    regions.push_back(std::make_unique<MigratoryRegion>(
        regionParams(0x300000, 1 << 20), kNodes,
        MigratoryRegion::Config{2, 4, 0.6, 0.5}));
    regions.push_back(std::make_unique<ProducerConsumerRegion>(
        regionParams(0x400000, 1 << 20), kNodes,
        ProducerConsumerRegion::Config{16, 1, 0.5, 8}));
    HotRegion::Config hot{0.8, 0.5};
    if (slow) {
        regions.push_back(std::make_unique<SlowHotRegion>(
            regionParams(0x600000, 64 * 1024), kNodes, hot));
    } else {
        regions.push_back(std::make_unique<HotRegion>(
            regionParams(0x600000, 64 * 1024), kNodes, hot));
    }
    return regions;
}

constexpr double kPipelineWeights[] = {4.0, 2.0, 2.0, 1.0};
constexpr double kPipelineWork = 3.0;
constexpr double kPipelineEpisode = 8.0;

std::unique_ptr<Workload>
pipelineWorkload(std::uint64_t seed, bool slow = false)
{
    auto w = std::make_unique<Workload>("pipeline", kNodes, kPipelineWork,
                                        seed, kPipelineEpisode);
    auto regions = pipelineRegions(slow);
    for (std::size_t i = 0; i < regions.size(); ++i)
        w->addRegion(std::move(regions[i]), kPipelineWeights[i]);
    return w;
}

/**
 * The workload's streams written out one reference at a time on the
 * calling thread, from the draw order the model defines: per
 * processor, an Rng on stream p + 1; at an episode's end a region
 * pick (uniform over the cumulative weights) and a geometric episode
 * length; per reference the region's draw, then the work draw.
 */
struct ReferenceStreams {
    struct Proc {
        Rng rng;
        std::size_t region = 0;
        std::uint64_t episodeLeft = 0;
    };

    std::vector<std::unique_ptr<Region>> regions = pipelineRegions(false);
    std::vector<double> cumWeights;
    GeometricSampler workGeo{kPipelineWork + 1.0};
    GeometricSampler episodeGeo{kPipelineEpisode};
    std::vector<Proc> procs;

    explicit ReferenceStreams(std::uint64_t seed)
    {
        double sum = 0.0;
        for (double weight : kPipelineWeights)
            cumWeights.push_back(sum += weight);
        for (NodeId p = 0; p < kNodes; ++p)
            procs.push_back(Proc{Rng(seed, p + 1)});
    }

    MemRef
    next(NodeId p)
    {
        Proc &st = procs[p];
        if (st.episodeLeft == 0) {
            double u = st.rng.uniformReal() * cumWeights.back();
            st.region = cumWeights.size() - 1;
            for (std::size_t i = 0; i < cumWeights.size(); ++i) {
                if (u < cumWeights[i]) {
                    st.region = i;
                    break;
                }
            }
            st.episodeLeft = episodeGeo.sample(st.rng);
        }
        --st.episodeLeft;
        RegionRef ref = regions[st.region]->gen(p, st.rng);
        MemRef out;
        out.work = static_cast<std::uint32_t>(workGeo.sample(st.rng) - 1);
        out.addr = ref.addr;
        out.pc = ref.pc;
        out.write = ref.write;
        return out;
    }
};

using Streams = std::vector<std::vector<MemRef>>;

void
expectSameStreams(const Streams &got, const Streams &want,
                  const char *order)
{
    ASSERT_EQ(got.size(), want.size()) << order;
    for (NodeId p = 0; p < got.size(); ++p) {
        ASSERT_EQ(got[p].size(), want[p].size()) << order << " cpu " << p;
        for (std::size_t i = 0; i < got[p].size(); ++i) {
            const MemRef &a = got[p][i], &b = want[p][i];
            ASSERT_TRUE(a.addr == b.addr && a.pc == b.pc &&
                        a.write == b.write && a.work == b.work)
                << order << ": cpu " << p << " ref " << i;
        }
    }
}

/** Bursty random interleaving: bursts of 1-300 references from random
 *  processors, so rings drain unevenly, until each processor has
 *  `per_cpu` references. */
Streams
drainBursty(Workload &w, std::size_t per_cpu, std::uint64_t seed)
{
    Streams out(kNodes);
    Rng pick(seed);
    std::size_t done = 0;
    while (done < kNodes) {
        NodeId p = static_cast<NodeId>(pick.uniformInt(kNodes));
        std::size_t burst = pick.uniformInt(300) + 1;
        for (std::size_t j = 0; j < burst && out[p].size() < per_cpu; ++j) {
            out[p].push_back(w.next(p));
            done += out[p].size() == per_cpu;
        }
    }
    return out;
}

TEST(Workload, StreamsAreIdenticalUnderAnyConsumptionOrder)
{
    // The producer thread runs ahead by however much the scheduler
    // lets it; no consumption order and no producer delay may change
    // one draw of any processor's stream.
    constexpr std::size_t kPerCpu = 3000;  // ~6 ring turns
    ReferenceStreams reference(7);
    Streams want(kNodes);
    for (NodeId p = 0; p < kNodes; ++p)
        for (std::size_t i = 0; i < kPerCpu; ++i)
            want[p].push_back(reference.next(p));

    auto bursty = pipelineWorkload(7);
    expectSameStreams(drainBursty(*bursty, kPerCpu, 3), want, "bursty");

    // CPU-major: each ring is drained dry many times over while the
    // others sit full.
    auto major = pipelineWorkload(7);
    Streams got(kNodes);
    for (NodeId p = 0; p < kNodes; ++p)
        for (std::size_t i = 0; i < kPerCpu; ++i)
            got[p].push_back(major->next(p));
    expectSameStreams(got, want, "cpu-major");

    // A delayed producer: the consumer outruns it and stalls.
    auto slow = pipelineWorkload(7, /* slow */ true);
    expectSameStreams(drainBursty(*slow, kPerCpu, 5), want, "slow");
    EXPECT_GT(slow->pipelineStats().stalls, 0u);
    for (NodeId p = 0; p < kNodes; ++p)
        EXPECT_EQ(slow->consumed(p), kPerCpu);
}

/** True when the process may run on two or more cores; on one, a
 *  Workload starts no producer thread and its consumers generate. */
bool
producerRuns()
{
    cpu_set_t cpus;
    return sched_getaffinity(0, sizeof cpus, &cpus) == 0 &&
           CPU_COUNT(&cpus) >= 2;
}

/** Wait (bounded) until the producer has topped up and gone to sleep;
 *  true at once where there is no producer. */
bool
waitForProducerAsleep(const Workload &w)
{
    if (!producerRuns())
        return true;
    for (int i = 0; i < 20000 && !w.producerAsleep(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return w.producerAsleep();
}

TEST(Workload, DestroyMidStreamJoinsTheProducer)
{
    // Asleep: every ring topped up, no consumer waiting.
    {
        auto w = pipelineWorkload(11);
        for (NodeId p = 0; p < kNodes; ++p)
            for (int i = 0; i < 100; ++i)
                w->next(p);
        ASSERT_TRUE(waitForProducerAsleep(*w));
        w.reset();
    }
    // Awake, in the middle of a slow top-up.
    {
        auto w = pipelineWorkload(11, /* slow */ true);
        w->next(0);
        w.reset();
    }
    // Never started.
    auto w = pipelineWorkload(11);
    EXPECT_EQ(w->pipelineStats().stalls, 0u);
}

TEST(Workload, ProducerWakesOnlyWhenARingRunsLow)
{
    if (!producerRuns())
        GTEST_SKIP() << "one core: no producer thread";
    auto w = pipelineWorkload(13);
    for (NodeId p = 0; p < kNodes; ++p)
        w->next(p);
    ASSERT_TRUE(waitForProducerAsleep(*w));
    std::uint64_t wakes = w->pipelineStats().wakes;
    // Draining fewer than half a ring wakes nobody...
    for (NodeId p = 0; p < kNodes; ++p)
        for (int i = 0; i < 100; ++i)
            w->next(p);
    EXPECT_EQ(w->pipelineStats().wakes, wakes);
    // ... and draining past half of one ring does.
    for (int i = 0; i < 400; ++i)
        w->next(3);
    for (int i = 0; i < 20000 && w->pipelineStats().wakes == wakes; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(w->pipelineStats().wakes, wakes);
}

/**
 * A region that panics after a number of draws: on the producer
 * thread, where PanicGuard turns the panic into an exception that the
 * producer keeps for the consumer, or on a consumer generating its dry
 * ring itself.
 */
class FailingRegion : public HotRegion
{
  public:
    using HotRegion::HotRegion;

    RegionRef
    gen(NodeId p, Rng &rng) override
    {
        dsp_assert(calls_.fetch_add(1, std::memory_order_relaxed) < 2000,
                   "generator gave up");
        return HotRegion::gen(p, rng);
    }

  private:
    std::atomic<std::uint64_t> calls_{0};
};

TEST(Workload, ProducerPanicReachesTheConsumer)
{
    PanicGuard guard;
    auto w = std::make_unique<Workload>("failing", kNodes, 1.0, 1);
    w->addRegion(std::make_unique<FailingRegion>(
                     regionParams(0x600000, 64 * 1024), kNodes,
                     HotRegion::Config{0.8, 0.5}),
                 1.0);
    try {
        for (int i = 0; i < 100000; ++i)
            w->next(static_cast<NodeId>(i % kNodes));
        ADD_FAILURE() << "the producer's panic never surfaced";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("generator gave up"),
                  std::string::npos)
            << e.what();
    }
    w.reset();
}

TEST(Workload, NoRegionsPanicsOnTheCallingThread)
{
    PanicGuard guard;
    Workload w("empty", kNodes, 1.0, 1);
    EXPECT_THROW(w.next(0), std::runtime_error);
}

// ------------------------------------------------------------ checkpoint

std::string
saveWorkload(Workload &w)
{
    ckpt::Writer writer;
    w.ckptSave(writer);
    return writer.buffer();
}

TEST(WorkloadCheckpoint, SaveDependsOnlyOnConsumption)
{
    // Three workloads at one consumption point whose producers have
    // run different distances ahead: one just drained, one asleep with
    // every ring full, one held back by a slow region.
    auto fresh = pipelineWorkload(21);
    auto rested = pipelineWorkload(21);
    auto slow = pipelineWorkload(21, /* slow */ true);
    drainBursty(*fresh, 1500, 9);
    drainBursty(*rested, 1500, 9);
    drainBursty(*slow, 1500, 9);
    ASSERT_TRUE(waitForProducerAsleep(*rested));

    std::string a = saveWorkload(*fresh);
    EXPECT_EQ(a, saveWorkload(*rested));
    EXPECT_EQ(a, saveWorkload(*slow));
    // Saving again at the same point changes nothing.
    EXPECT_EQ(a, saveWorkload(*fresh));

    // A restored workload continues every stream exactly.
    auto restored = pipelineWorkload(99);
    ckpt::Reader reader(a);
    restored->ckptLoad(reader);
    EXPECT_TRUE(reader.atEnd());
    for (NodeId p = 0; p < kNodes; ++p)
        EXPECT_EQ(restored->consumed(p), fresh->consumed(p));
    expectSameStreams(drainBursty(*restored, 2000, 4),
                      drainBursty(*fresh, 2000, 4), "restored");
}

TEST(WorkloadCheckpoint, RestoresAnInlineGeneratorSnapshot)
{
    // Snapshots of the inline generator held a 64-reference refill
    // buffer part-way consumed. Write one from the reference model --
    // consumed 1000 per processor, 10 of the buffer consumed -- and
    // check the restored workload continues the stream.
    constexpr std::uint64_t kConsumed = 1000;
    constexpr std::uint64_t kBufPos = 10;
    constexpr std::uint64_t kBatch = 64;
    ReferenceStreams reference(31);
    Streams want(kNodes);
    ckpt::Writer w;
    w.section(0x574b4c44u);  // "WKLD"
    w.u64(kNodes);
    for (NodeId p = 0; p < kNodes; ++p) {
        std::vector<MemRef> buf(kBatch);
        for (std::uint64_t i = 0; i < kConsumed - kBufPos; ++i)
            reference.next(p);
        for (MemRef &ref : buf)
            ref = reference.next(p);
        want[p].assign(buf.begin() + kBufPos, buf.end());
        const ReferenceStreams::Proc &st = reference.procs[p];
        for (std::uint64_t v : st.rng.ckptState())
            w.u64(v);
        w.u64(st.region);
        w.u64(st.episodeLeft);
        w.podVec(buf);
        w.u64(kBufPos);
        w.u64(kConsumed);
    }
    w.u64(reference.regions.size());
    for (const auto &region : reference.regions)
        region->ckptSave(w);

    auto restored = pipelineWorkload(1);
    ckpt::Reader r(w.buffer());
    restored->ckptLoad(r);
    for (NodeId p = 0; p < kNodes; ++p) {
        for (int i = 0; i < 2000; ++i)
            want[p].push_back(reference.next(p));
    }
    Streams got(kNodes);
    for (NodeId p = 0; p < kNodes; ++p) {
        EXPECT_EQ(restored->consumed(p), kConsumed);
        while (got[p].size() < want[p].size())
            got[p].push_back(restored->next(p));
    }
    expectSameStreams(got, want, "inline snapshot");
}

/** Byte offsets of processor 0's fields in a ckptSave() payload. */
constexpr std::size_t kProc0Region = 4 + 8 + 4 * 8;
constexpr std::size_t kProc0BufLen = kProc0Region + 2 * 8;

/** Overwrite one little-endian u64 of a payload. */
void
pokeU64(std::string &payload, std::size_t at, std::uint64_t v)
{
    ASSERT_LE(at + 8, payload.size());
    std::memcpy(&payload[at], &v, 8);
}

std::uint64_t
peekU64(const std::string &payload, std::size_t at)
{
    std::uint64_t v = 0;
    std::memcpy(&v, &payload[at], 8);
    return v;
}

/** Write `payload` as a checkpoint file (fresh header and CRC), read
 *  it back through the validating reader and restore it into `w`. */
void
restoreThroughFile(Workload &w, const std::string &payload)
{
    std::string path = testing::TempDir() + "dsp_wkld_edit_" +
                       std::to_string(::getpid()) + ".dsp";
    ASSERT_TRUE(ckpt::writeCheckpointFile(path, payload));
    std::string back;
    bool valid = ckpt::readCheckpointFile(path, back);
    std::remove(path.c_str());
    ASSERT_TRUE(valid) << "the edited file must pass the CRC check";
    ckpt::Reader r(back);
    w.ckptLoad(r);
}

TEST(WorkloadCheckpoint, HandEditedPositionsAreRejected)
{
    auto source = pipelineWorkload(41);
    drainBursty(*source, 700, 2);
    const std::string good = saveWorkload(*source);
    const std::uint64_t buf_len = peekU64(good, kProc0BufLen);
    ASSERT_GT(buf_len, 0u);
    const std::size_t buf_pos_at = kProc0BufLen + 8 + buf_len * sizeof(MemRef);
    ASSERT_EQ(peekU64(good, buf_pos_at), 0u);
    ASSERT_LT(peekU64(good, kProc0Region), source->regionCount());

    PanicGuard guard;
    auto expectFatal = [](const std::string &payload, const char *what) {
        auto w = pipelineWorkload(41);
        try {
            restoreThroughFile(*w, payload);
            ADD_FAILURE() << "restored a checkpoint with " << what;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("fatal:"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };

    std::string edited = good;
    pokeU64(edited, buf_pos_at, buf_len + 1);
    expectFatal(edited, "buffer position");

    edited = good;
    pokeU64(edited, kProc0Region, source->regionCount());
    expectFatal(edited, "region");

    // The unedited payload restores through the same path.
    auto w = pipelineWorkload(41);
    restoreThroughFile(*w, good);
    EXPECT_EQ(w->consumed(0), 700u);
}

} // namespace
} // namespace dsp
