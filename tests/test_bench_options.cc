/**
 * @file
 * Tests for the benches' strict command-line number parsing
 * (bench/bench_common.hh): every malformed or out-of-range value, and
 * every machine shape the topology cannot build, exits 1 with a
 * `fatal:` line before any simulator object exists.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "../bench/bench_common.hh"

namespace dsp {
namespace {

using ::testing::ExitedWithCode;

TEST(BenchOptions, ParsesValuesInRange)
{
    EXPECT_EQ(bench::parseUint("--measure", "1", 1, 10), 1u);
    EXPECT_EQ(bench::parseUint("--measure", "10", 1, 10), 10u);
    EXPECT_EQ(bench::parseUint("--seed", "18446744073709551615", 0,
                               UINT64_MAX),
              UINT64_MAX);
    EXPECT_EQ(bench::parseNodes("128"), 128u);
    EXPECT_EQ(bench::parseHubs("64"), 64u);
    EXPECT_EQ(bench::parseCluster("0"), 0u);
    EXPECT_DOUBLE_EQ(bench::parseSwitchNs("15"), 15.0);
    EXPECT_DOUBLE_EQ(bench::parseSwitchNs("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(bench::parseDouble("--scale", "1e-2", 1e-4, 64.0),
                     0.01);
}

TEST(BenchOptions, RejectsMalformedIntegers)
{
    EXPECT_EXIT(bench::parseUint("--threads", "abc", 1, 64),
                ExitedWithCode(1), "fatal: --threads 'abc'");
    EXPECT_EXIT(bench::parseUint("--warmup", "12abc", 0, 100),
                ExitedWithCode(1), "fatal: --warmup '12abc'");
    EXPECT_EXIT(bench::parseUint("--warmup", "", 0, 100),
                ExitedWithCode(1), "fatal: --warmup ''");
    EXPECT_EXIT(bench::parseUint("--measure", " 5", 1, 100),
                ExitedWithCode(1), "fatal: --measure ' 5'");
    EXPECT_EXIT(bench::parseUint("--seed", "99999999999999999999", 0,
                                 UINT64_MAX),
                ExitedWithCode(1), "fatal: --seed");
}

TEST(BenchOptions, RejectsNegativeAndOutOfRangeIntegers)
{
    // A negative count used to wrap to 2^64 - 5 and run until killed.
    EXPECT_EXIT(bench::parseUint("--measure", "-5", 1,
                                 bench::maxRunLength),
                ExitedWithCode(1), "fatal: --measure '-5'");
    // Zero measured instructions used to wedge the measured phase.
    EXPECT_EXIT(bench::parseUint("--measure", "0", 1,
                                 bench::maxRunLength),
                ExitedWithCode(1), "expected an integer in 1\\.\\.");
    EXPECT_EXIT(bench::parseUint("--measure", "1000000000001", 1,
                                 bench::maxRunLength),
                ExitedWithCode(1), "fatal: --measure");
    EXPECT_EXIT(bench::parseHubs("0"), ExitedWithCode(1),
                "fatal: --hubs '0'");
    EXPECT_EXIT(bench::parseHubs("65"), ExitedWithCode(1),
                "fatal: --hubs '65'");
    EXPECT_EXIT(bench::parseNodes("1"), ExitedWithCode(1),
                "fatal: --nodes '1'");
    EXPECT_EXIT(bench::parseCluster("257"), ExitedWithCode(1),
                "fatal: --cluster '257'");
}

TEST(BenchOptions, RejectsBadDoubles)
{
    EXPECT_EXIT(bench::parseSwitchNs("-1"), ExitedWithCode(1),
                "fatal: --switch-ns '-1'");
    EXPECT_EXIT(bench::parseSwitchNs("abc"), ExitedWithCode(1),
                "fatal: --switch-ns 'abc'");
    EXPECT_EXIT(bench::parseSwitchNs("nan"), ExitedWithCode(1),
                "fatal: --switch-ns 'nan'");
    EXPECT_EXIT(bench::parseSwitchNs("inf"), ExitedWithCode(1),
                "fatal: --switch-ns 'inf'");
    EXPECT_EXIT(bench::parseSwitchNs("5ns"), ExitedWithCode(1),
                "fatal: --switch-ns '5ns'");
    EXPECT_EXIT(bench::parseDouble("--scale", "0", 1e-4, 64.0),
                ExitedWithCode(1), "fatal: --scale '0'");
}

TEST(BenchOptions, RejectsClustersThatDoNotDivideTheMachine)
{
    bench::checkTopology(16, 0);
    bench::checkTopology(16, 16);
    bench::checkTopology(64, 16);
    EXPECT_EXIT(bench::checkTopology(16, 5), ExitedWithCode(1),
                "fatal: --cluster 5 does not divide --nodes 16");
    EXPECT_EXIT(bench::checkTopology(16, 32), ExitedWithCode(1),
                "fatal: --cluster 32 does not divide --nodes 16");
}

} // namespace
} // namespace dsp
