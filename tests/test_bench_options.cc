/**
 * @file
 * Tests for the benches' shared helpers (bench/bench_common.hh): strict
 * command-line number parsing -- every malformed or out-of-range
 * value, and every machine shape the topology cannot build, exits 1
 * with a `fatal:` line before any simulator object exists -- and the
 * on-disk trace cache.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

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

/** Runs the enclosing scope in a fresh temporary directory (the
 *  trace cache lives under the working directory's traces/), and
 *  restores the working directory however the scope ends. */
class ScratchCwd
{
  public:
    ScratchCwd()
    {
        char tmpl[] = "/tmp/dsp_test_tracecache.XXXXXX";
        if (::mkdtemp(tmpl) == nullptr) {
            ADD_FAILURE() << "cannot make a scratch directory";
            return;
        }
        dir_ = tmpl;
        std::filesystem::current_path(dir_);
    }

    ScratchCwd(const ScratchCwd &) = delete;
    ScratchCwd &operator=(const ScratchCwd &) = delete;

    ~ScratchCwd()
    {
        if (dir_.empty())
            return;
        std::filesystem::current_path(old_);
        std::filesystem::remove_all(dir_);
    }

    bool ok() const { return !dir_.empty(); }

  private:
    const std::filesystem::path old_ = std::filesystem::current_path();
    std::filesystem::path dir_;
};

TEST(BenchTraceCache, TruncatedCacheIsRecollected)
{
    ScratchCwd cwd;
    ASSERT_TRUE(cwd.ok());

    bench::Options opt;
    opt.scale = 0.05;
    opt.warmupMisses = 200;
    opt.measureMisses = 300;
    opt.seed = 7;
    const std::string name = "barnes";
    const std::string path = bench::traceCachePath(opt, name);

    // Cache a correct trace under the exact name getOrCollectTrace
    // looks for, then cut it short, as a full disk or an older writer
    // could have left it.
    {
        auto workload =
            makeWorkload(name, opt.nodes, opt.seed, opt.scale);
        TraceCollector collector(*workload);
        const Trace full =
            collector.collect(opt.warmupMisses, opt.measureMisses);
        ASSERT_EQ(::mkdir("traces", 0755), 0);
        ASSERT_TRUE(writeTrace(full, path));
    }
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_EQ(::truncate(path.c_str(), st.st_size / 2), 0);

    // A fatal error would throw here instead of exiting.
    PanicGuard guard;
    const Trace &trace = bench::getOrCollectTrace(opt, name);
    EXPECT_EQ(trace.size(), opt.warmupMisses + opt.measureMisses);
    EXPECT_EQ(trace.workloadName, name);

    // The recollected trace replaced the truncated file.
    Trace reread;
    std::string why;
    ASSERT_TRUE(tryReadTrace(path, reread, why)) << why;
    EXPECT_EQ(reread.size(), trace.size());
    EXPECT_EQ(reread.warmupRecords, opt.warmupMisses);
}

} // namespace
} // namespace dsp
