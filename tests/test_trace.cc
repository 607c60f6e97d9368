/**
 * @file
 * Tests for trace records, binary round-tripping, the trace
 * collector's annotations, and the collector/tracker consistency
 * invariant.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/trace_collector.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

std::string
tempPath(const char *name)
{
    return std::string("/tmp/dsp_test_") + name + ".trace";
}

TEST(TraceRecord, MissInfoConversion)
{
    TraceRecord record;
    record.addr = 0x12345;
    record.pc = 0x888;
    record.requester = 5;
    record.responder = 9;
    record.type =
        static_cast<std::uint8_t>(RequestType::GetExclusive);
    record.requiredMask = 0b1010;

    MissInfo info = record.toMissInfo(kNodes);
    EXPECT_EQ(info.addr, 0x12345u);
    EXPECT_EQ(info.pc, 0x888u);
    EXPECT_EQ(info.requester, 5u);
    EXPECT_EQ(info.responder, 9u);
    EXPECT_EQ(info.type, RequestType::GetExclusive);
    EXPECT_EQ(info.required.mask(), 0b1010u);
    EXPECT_EQ(info.home, homeOf(blockOf(0x12345), kNodes));
}

TEST(TraceRecord, MemoryResponderSentinel)
{
    TraceRecord record;
    record.responder = TraceRecord::memoryResponder;
    EXPECT_EQ(record.toMissInfo(kNodes).responder, invalidNode);
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    Trace trace;
    trace.workloadName = "roundtrip";
    trace.numNodes = kNodes;
    trace.totalInstructions = 123456;
    trace.warmupRecords = 1;
    trace.warmupInstructions = 1000;
    for (int i = 0; i < 5; ++i) {
        TraceRecord r;
        r.addr = 0x1000u * (i + 1);
        r.pc = 0x40u * i;
        r.requester = static_cast<std::uint32_t>(i);
        r.responder = i % 2 ? TraceRecord::memoryResponder
                            : static_cast<std::uint32_t>(i + 1);
        r.requiredMask = static_cast<std::uint64_t>(i);
        trace.records.push_back(r);
    }

    std::string path = tempPath("roundtrip");
    ASSERT_TRUE(writeTrace(trace, path));
    Trace loaded = readTrace(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.workloadName, trace.workloadName);
    EXPECT_EQ(loaded.numNodes, trace.numNodes);
    EXPECT_EQ(loaded.totalInstructions, trace.totalInstructions);
    EXPECT_EQ(loaded.warmupRecords, trace.warmupRecords);
    EXPECT_EQ(loaded.warmupInstructions, trace.warmupInstructions);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded.records[i].addr, trace.records[i].addr);
        EXPECT_EQ(loaded.records[i].responder,
                  trace.records[i].responder);
        EXPECT_EQ(loaded.records[i].requiredMask,
                  trace.records[i].requiredMask);
    }
    EXPECT_EQ(loaded.measuredRecords(), 4u);
    EXPECT_EQ(loaded.measuredInstructions(), 122456u);
}

TEST(TraceIo, MissingFileFatals)
{
    PanicGuard guard;
    EXPECT_THROW(readTrace("/nonexistent/path.trace"),
                 std::runtime_error);
}

TEST(TraceIo, BadMagicFatals)
{
    std::string path = tempPath("badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[256] = "not a trace";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);

    PanicGuard guard;
    EXPECT_THROW(readTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

/** A small well-formed 16-node trace; tests garble one field. */
Trace
smallTrace(std::size_t records = 5)
{
    Trace trace;
    trace.workloadName = "garbled";
    trace.numNodes = kNodes;
    for (std::size_t i = 0; i < records; ++i) {
        TraceRecord r;
        r.addr = 0x1000u * (i + 1);
        r.requester = static_cast<std::uint32_t>(i % kNodes);
        r.responder = TraceRecord::memoryResponder;
        r.requiredMask = 0b110;
        trace.records.push_back(r);
    }
    return trace;
}

/** readTrace(path) must fail with a fatal error naming `what`. */
void
expectFatal(const std::string &path, const std::string &what)
{
    PanicGuard guard;
    try {
        readTrace(path);
        ADD_FAILURE() << "readTrace accepted a garbled trace (" << what
                      << ")";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

/** Write `trace` to `name`, asserting the write itself succeeds. */
std::string
writeGarbled(const Trace &trace, const char *name)
{
    std::string path = tempPath(name);
    EXPECT_TRUE(writeTrace(trace, path));
    return path;
}

TEST(TraceIo, HugeRecordCountFatalsBeforeAllocating)
{
    // Patch the header's record count (byte 24, after magic, version
    // and node count and total instructions) to 2^60: the reader must
    // compare it with the file size, not hand it to the allocator.
    std::string path = writeGarbled(smallTrace(), "hugecount");
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const std::uint64_t huge = std::uint64_t{1} << 60;
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
    std::fclose(f);
    expectFatal(path, "declares 1152921504606846976 trace records");
}

TEST(TraceIo, NodeCountOutsideTheMaskRangeFatals)
{
    Trace zero = smallTrace();
    zero.numNodes = 0;
    expectFatal(writeGarbled(zero, "zeronodes"), "declares 0 nodes");

    Trace wide = smallTrace();
    wide.numNodes = DestinationSet::maskNodes + 1;
    expectFatal(writeGarbled(wide, "widenodes"), "declares 65 nodes");
}

TEST(TraceIo, WarmupBeyondRecordCountFatals)
{
    Trace trace = smallTrace();
    trace.warmupRecords = trace.size() + 1;
    expectFatal(writeGarbled(trace, "warmup"),
                "declares 6 warmup records of only 5");
}

TEST(TraceIo, RequesterOutsideTheMachineFatals)
{
    Trace trace = smallTrace();
    trace.records[3].requester = kNodes;
    expectFatal(writeGarbled(trace, "requester"), "record 3");
}

TEST(TraceIo, ResponderOutsideTheMachineFatals)
{
    Trace trace = smallTrace();
    trace.records[2].responder = kNodes;
    expectFatal(writeGarbled(trace, "responder"), "record 2");
}

TEST(TraceIo, RequiredNodeOutsideTheMachineFatals)
{
    Trace trace = smallTrace();
    trace.records[4].requiredMask = std::uint64_t{1} << kNodes;
    expectFatal(writeGarbled(trace, "required"), "record 4");
}

TEST(TraceIo, RequestTypeOutOfRangeFatals)
{
    Trace trace = smallTrace();
    trace.records[1].type =
        static_cast<std::uint8_t>(RequestType::GetExclusive) + 1;
    expectFatal(writeGarbled(trace, "type"), "record 1");
}

TEST(TraceIo, FullMachineMaskIsAccepted)
{
    // At the 64-node ceiling every mask bit names a real node.
    Trace trace = smallTrace();
    trace.numNodes = DestinationSet::maskNodes;
    trace.records[0].requester = DestinationSet::maskNodes - 1;
    trace.records[0].requiredMask = (std::uint64_t{1} << 62) | 1;
    std::string path = writeGarbled(trace, "fullmask");
    EXPECT_EQ(readTrace(path).records[0].requiredMask,
              trace.records[0].requiredMask);
    std::remove(path.c_str());
}

/** Names in `dir`, other than . and .. */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                names.push_back(name);
        }
        ::closedir(d);
    }
    return names;
}

TEST(TraceIo, FailedWriteLeavesNoFileAtThePath)
{
    char dir_template[] = "/tmp/dsp_test_tracewrite.XXXXXX";
    ASSERT_NE(::mkdtemp(dir_template), nullptr);
    const std::string dir = dir_template;
    const std::string path = dir + "/t.dsptrace";

    // An unopenable target: nothing appears.
    EXPECT_FALSE(writeTrace(smallTrace(), dir + "/missing/t.dsptrace"));

    // A short write: a child capped at 4 KiB of file size (SIGXFSZ
    // ignored, so writes fail with EFBIG) writes a 40 KB trace.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::signal(SIGXFSZ, SIG_IGN);
        struct rlimit cap = {4096, 4096};
        ::setrlimit(RLIMIT_FSIZE, &cap);
        ::_exit(writeTrace(smallTrace(1000), path) ? 0 : 3);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 3) << "the short write was reported "
                                         "as a success";
    EXPECT_TRUE(listDir(dir).empty())
        << "a failed write left " << listDir(dir).front();

    // A successful write leaves exactly the final file.
    ASSERT_TRUE(writeTrace(smallTrace(1000), path));
    EXPECT_EQ(listDir(dir), std::vector<std::string>{"t.dsptrace"});
    EXPECT_EQ(readTrace(path).size(), 1000u);
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

// --------------------------------------------------------- trace collector

TEST(TraceCollector, CollectsRequestedMissCounts)
{
    auto workload = makeWorkload("oltp", kNodes, 1, 0.05);
    TraceCollector collector(*workload);
    Trace trace = collector.collect(200, 300);
    EXPECT_EQ(trace.size(), 500u);
    EXPECT_EQ(trace.warmupRecords, 200u);
    EXPECT_EQ(trace.measuredRecords(), 300u);
    EXPECT_GT(trace.totalInstructions, trace.warmupInstructions);
    EXPECT_EQ(trace.workloadName, "oltp");
}

TEST(TraceCollector, RejectsMachinesAboveTheMaskCeiling)
{
    // Trace records hold one 64-bit mask word: 64 nodes collect, 65+
    // is a clean fatal error instead of a panic deep in mask().
    auto ok = makeWorkload("oltp", DestinationSet::maskNodes, 1, 0.05);
    TraceCollector at_ceiling(*ok);
    EXPECT_EQ(at_ceiling.collect(10, 10).size(), 20u);

    auto big = makeWorkload("oltp", 128, 1, 0.05);
    PanicGuard guard;
    EXPECT_THROW(TraceCollector collector(*big), std::runtime_error);
}

TEST(TraceCollector, RecordsAreInternallyConsistent)
{
    auto workload = makeWorkload("apache", kNodes, 2, 0.05);
    TraceCollector collector(*workload);
    Trace trace = collector.collect(0, 2000);

    for (const TraceRecord &r : trace.records) {
        ASSERT_LT(r.requester, kNodes);
        // Required set never includes the requester.
        ASSERT_FALSE(r.required().contains(r.requester));
        // A cache responder is always a member of the required set
        // unless the responder is the requester itself (upgrade).
        if (r.responder != TraceRecord::memoryResponder &&
            r.responder != r.requester) {
            ASSERT_TRUE(r.required().contains(r.responder));
        }
    }
}

TEST(TraceCollector, TrackerMatchesCaches)
{
    auto workload = makeWorkload("oltp", kNodes, 3, 0.05);
    TraceCollector collector(*workload);
    std::set<BlockId> touched;
    collector.addMissObserver(
        [&](const TraceRecord &r, const SharingTracker::Transaction &) {
            touched.insert(blockOf(r.addr));
        });
    collector.run(3000);

    // Global invariant: a node holds a block in its L2 iff the
    // tracker believes it is a holder.
    const SharingTracker &tracker = collector.tracker();
    int checked = 0;
    for (BlockId b : touched) {
        DestinationSet holders = tracker.holdersOf(b);
        for (NodeId n = 0; n < kNodes; ++n) {
            MosiState state = collector.caches(n).stateOf(b);
            if (holders.contains(n)) {
                ASSERT_NE(state, MosiState::Invalid)
                    << "node " << n << " block " << b;
                ++checked;
            } else {
                ASSERT_EQ(state, MosiState::Invalid)
                    << "node " << n << " block " << b;
            }
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(TraceCollector, OwnerStatesMatchTracker)
{
    auto workload = makeWorkload("barnes", kNodes, 4, 0.05);
    TraceCollector collector(*workload);
    std::set<BlockId> touched;
    collector.addMissObserver(
        [&](const TraceRecord &r, const SharingTracker::Transaction &) {
            touched.insert(blockOf(r.addr));
        });
    collector.run(2000);

    const SharingTracker &tracker = collector.tracker();
    int owners = 0;
    for (BlockId b : touched) {
        NodeId owner = tracker.ownerOf(b);
        if (owner == invalidNode)
            continue;
        ++owners;
        ASSERT_TRUE(
            isOwnerState(collector.caches(owner).stateOf(b)))
            << "block " << b << " owner " << owner;
    }
    EXPECT_GT(owners, 0);
}

TEST(TraceCollector, RefObserversSeeEveryReference)
{
    auto workload = makeWorkload("ocean", kNodes, 5, 0.05);
    TraceCollector collector(*workload);
    std::uint64_t refs = 0;
    collector.addRefObserver(
        [&](NodeId, const MemRef &) { ++refs; });
    auto stats = collector.run(500);
    EXPECT_EQ(refs, stats.references);
    EXPECT_GE(stats.instructions, stats.references);
    EXPECT_EQ(stats.misses, 500u);
}

TEST(TraceCollector, MaxRefsSafetyValve)
{
    auto workload = makeWorkload("barnes", kNodes, 6, 0.05);
    TraceCollector collector(*workload);
    auto stats = collector.run(1u << 30, /* max_refs */ 1000);
    EXPECT_EQ(stats.references, 1000u);
}

} // namespace
} // namespace dsp
