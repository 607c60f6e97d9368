/**
 * @file
 * Tests for the two processor models against a mock memory port:
 * base-rate timing, blocking behaviour, miss overlap (MLP), ROB and
 * MSHR limits.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/detailed_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "workload/region.hh"
#include "workload/workload.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

/** Memory port with a scripted reply pattern. */
class MockPort : public MemoryPort
{
  public:
    explicit MockPort(EventQueue &queue) : queue_(queue) {}

    /** Every `missEvery`-th access misses with `missLatencyNs`. */
    std::uint64_t missEvery = 0;  ///< 0 = everything hits in L1
    double missLatencyNs = 180.0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    unsigned outstanding = 0;
    unsigned peakOutstanding = 0;

    AccessReply
    access(Addr, Addr, bool, Tick when, const Completion &done) override
    {
        ++accesses;
        if (missEvery == 0 || accesses % missEvery != 0)
            return AccessReply::L1Hit;
        ++misses;
        ++outstanding;
        peakOutstanding = std::max(peakOutstanding, outstanding);
        Tick fire = std::max(when, queue_.now()) +
                    nsToTicks(missLatencyNs);
        queue_.schedule(fire, [this, done, fire]() {
            --outstanding;
            done(fire);
        });
        return AccessReply::Miss;
    }

  private:
    EventQueue &queue_;
};

/** A workload whose refs are all reads with zero work. */
std::unique_ptr<Workload>
flatWorkload()
{
    auto w = std::make_unique<Workload>("flat", kNodes, 0.0, 1);
    Region::Params params;
    params.name = "flat";
    params.base = 0x1000000;
    params.bytes = 1 << 20;
    params.pcSites = 16;
    w->addRegion(std::make_unique<ReadMostlyRegion>(
                     params, kNodes,
                     ReadMostlyRegion::Config{1024, 1.0, 0.0}),
                 1.0);
    return w;
}

TEST(SimpleCpu, PerfectL1RunsAtFourBips)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    SimpleCpu cpu(q, *workload, 0, port);

    bool done = false;
    cpu.runFor(1000000, [&]() { done = true; });
    q.run();
    ASSERT_TRUE(done);
    // 4 BIPS = 0.25 ns per instruction -> 1M instrs in 250 us.
    double ns = ticksToNs(cpu.finishTick());
    EXPECT_NEAR(ns, 250000.0, 2500.0);
}

TEST(SimpleCpu, MissesStallTheFullLatency)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    port.missEvery = 100;
    port.missLatencyNs = 180.0;
    SimpleCpu cpu(q, *workload, 0, port);

    cpu.runFor(100000, []() {});
    q.run();
    // Expected: 100k instrs * 0.25 ns + ~1000 misses * 180 ns.
    double ns = ticksToNs(cpu.finishTick());
    double expected = 100000 * 0.25 + 1000 * 180.0;
    EXPECT_NEAR(ns, expected, expected * 0.05);
    EXPECT_EQ(port.misses, 1000u);
    // Blocking model: never more than one outstanding.
    EXPECT_EQ(port.peakOutstanding, 1u);
}

TEST(SimpleCpu, RetiredCountsAreExact)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    SimpleCpu cpu(q, *workload, 0, port);
    cpu.runFor(5000, []() {});
    q.run();
    EXPECT_EQ(cpu.retired(), 5000u);
}

TEST(SimpleCpu, TwoPhaseRunsContinue)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    SimpleCpu cpu(q, *workload, 0, port);
    int dones = 0;
    cpu.runFor(1000, [&]() { ++dones; });
    q.run();
    Tick first = cpu.finishTick();
    cpu.runFor(1000, [&]() { ++dones; });
    q.run();
    EXPECT_EQ(dones, 2);
    EXPECT_EQ(cpu.retired(), 2000u);
    EXPECT_GT(cpu.finishTick(), first);
}

TEST(DetailedCpu, PerfectL1RunsAtEightBips)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    DetailedCpu cpu(q, *workload, 0, port);
    cpu.runFor(1000000, []() {});
    q.run();
    // 4-wide at 2 GHz = 0.125 ns/instr -> 1M instrs in 125 us.
    double ns = ticksToNs(cpu.finishTick());
    EXPECT_NEAR(ns, 125000.0, 2500.0);
}

TEST(DetailedCpu, OverlapsIndependentMisses)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    port.missEvery = 10;  // several misses per 64-entry window
    port.missLatencyNs = 500.0;
    DetailedCpu cpu(q, *workload, 0, port);
    cpu.runFor(10000, []() {});
    q.run();

    EXPECT_GT(cpu.peakOutstanding(), 2u);
    // Serial handling would need ~1000 misses * 500 ns = 500 us; MLP
    // must beat that comfortably.
    double ns = ticksToNs(cpu.finishTick());
    EXPECT_LT(ns, 0.5 * 1000 * 500.0);
}

TEST(DetailedCpu, MshrLimitCapsOverlap)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    port.missEvery = 2;
    port.missLatencyNs = 2000.0;
    CpuParams params;
    params.mshrs = 4;
    DetailedCpu cpu(q, *workload, 0, port, params);
    cpu.runFor(5000, []() {});
    q.run();
    EXPECT_LE(cpu.peakOutstanding(), 4u);
    EXPECT_LE(port.peakOutstanding, 4u);
}

TEST(DetailedCpu, RobLimitThrottlesFetchAcrossAMiss)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    // One very long miss early; with a 64-entry ROB the core can run
    // at most 64 instructions past it.
    port.missEvery = 1000000;
    port.missLatencyNs = 100000.0;
    CpuParams params;
    params.rob = 64;
    DetailedCpu cpu(q, *workload, 0, port, params);

    // First access is a hit; make the 2nd access the miss.
    port.accesses = 1000000 - 2;
    cpu.runFor(2000, []() {});
    q.run();
    // The long miss dominates the runtime: roughly miss latency.
    double ns = ticksToNs(cpu.finishTick());
    EXPECT_GT(ns, 100000.0 * 0.9);
    EXPECT_EQ(cpu.retired(), 2000u);
}

TEST(DetailedCpu, SurvivesWorkBurstsLargerThanRob)
{
    // Regression: a reference preceded by more non-memory work than
    // the ROB holds must not deadlock the fetch stall logic.
    EventQueue q;
    // mean work 40 => geometric tail regularly exceeds a 16-entry ROB.
    auto w = std::make_unique<Workload>("bursty", kNodes, 40.0, 7);
    Region::Params params;
    params.name = "bursty";
    params.base = 0x2000000;
    params.bytes = 1 << 20;
    params.pcSites = 16;
    w->addRegion(std::make_unique<ReadMostlyRegion>(
                     params, kNodes,
                     ReadMostlyRegion::Config{1024, 1.0, 0.0}),
                 1.0);

    MockPort port(q);
    port.missEvery = 5;
    port.missLatencyNs = 300.0;
    CpuParams cpu_params;
    cpu_params.rob = 16;
    DetailedCpu cpu(q, *w, 0, port, cpu_params);
    bool done = false;
    cpu.runFor(50000, [&]() { done = true; });
    q.run();
    ASSERT_TRUE(done) << "detailed CPU wedged on a large work burst";
    EXPECT_GE(cpu.retired(), 50000u);
}

TEST(DetailedCpu, RetiresInOrder)
{
    EventQueue q;
    auto workload = flatWorkload();
    MockPort port(q);
    port.missEvery = 7;
    port.missLatencyNs = 300.0;
    DetailedCpu cpu(q, *workload, 0, port);
    bool done = false;
    cpu.runFor(20000, [&]() { done = true; });
    q.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(cpu.retired(), 20000u);
}

} // namespace
} // namespace dsp
