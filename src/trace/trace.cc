#include "trace/trace.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

#include "sim/logging.hh"

namespace dsp {

namespace {

constexpr std::uint64_t traceMagic = 0x445350545243ull;  // "DSPTRC"
constexpr std::uint32_t traceVersion = 1;

struct TraceHeader {
    std::uint64_t magic = traceMagic;
    std::uint32_t version = traceVersion;
    std::uint32_t numNodes = 0;
    std::uint64_t totalInstructions = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t warmupRecords = 0;
    std::uint64_t warmupInstructions = 0;
    char name[64] = {};
};

struct FileCloser {
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

bool
writeTrace(const Trace &trace, const std::string &path)
{
    // Write a temp file beside the target and rename it into place
    // only once every byte is out, so a run killed or starved of disk
    // mid-write never leaves a truncated trace at `path` for the next
    // reader to trip over.
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) {
        dsp_warn("cannot open '%s' for writing", tmp.c_str());
        return false;
    }

    TraceHeader header;
    header.numNodes = trace.numNodes;
    header.totalInstructions = trace.totalInstructions;
    header.recordCount = trace.records.size();
    header.warmupRecords = trace.warmupRecords;
    header.warmupInstructions = trace.warmupInstructions;
    std::strncpy(header.name, trace.workloadName.c_str(),
                 sizeof(header.name) - 1);

    bool ok = std::fwrite(&header, sizeof(header), 1, f.get()) == 1 &&
              (trace.records.empty() ||
               std::fwrite(trace.records.data(), sizeof(TraceRecord),
                           trace.records.size(), f.get()) ==
                   trace.records.size());
    // Buffered bytes can still fail to land at close.
    ok = std::fclose(f.release()) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        dsp_warn("cannot write trace '%s'", path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
tryReadTrace(const std::string &path, Trace &trace, std::string &why)
{
    auto fail = [&why](std::string msg) {
        why = std::move(msg);
        return false;
    };

    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return fail(detail::formatString("cannot open trace file '%s'",
                                         path.c_str()));

    TraceHeader header;
    if (std::fread(&header, sizeof(header), 1, f.get()) != 1)
        return fail(detail::formatString("truncated trace header in '%s'",
                                         path.c_str()));
    if (header.magic != traceMagic)
        return fail(detail::formatString("'%s' is not a dsp trace file",
                                         path.c_str()));
    if (header.version != traceVersion)
        return fail(detail::formatString(
            "trace version %u unsupported (expected %u)", header.version,
            traceVersion));

    // Every header field is checked before it sizes or indexes
    // anything: a garbled count must not reach the allocator, and a
    // zero or oversized machine must not reach homeOf().
    struct stat st;
    if (::fstat(::fileno(f.get()), &st) != 0)
        return fail(detail::formatString("cannot stat trace file '%s'",
                                         path.c_str()));
    std::uint64_t body = static_cast<std::uint64_t>(st.st_size) -
                         sizeof(header);
    if (header.recordCount != body / sizeof(TraceRecord) ||
        body % sizeof(TraceRecord) != 0) {
        return fail(detail::formatString(
            "'%s' declares %llu trace records but holds %llu bytes of "
            "them (truncated or garbled)",
            path.c_str(),
            static_cast<unsigned long long>(header.recordCount),
            static_cast<unsigned long long>(body)));
    }
    if (header.numNodes < 1 || header.numNodes > DestinationSet::maskNodes)
        return fail(detail::formatString(
            "'%s' declares %u nodes (a trace holds 1..%u)", path.c_str(),
            header.numNodes, DestinationSet::maskNodes));
    if (header.warmupRecords > header.recordCount)
        return fail(detail::formatString(
            "'%s' declares %llu warmup records of only %llu", path.c_str(),
            static_cast<unsigned long long>(header.warmupRecords),
            static_cast<unsigned long long>(header.recordCount)));

    Trace read;
    read.workloadName.assign(
        header.name, strnlen(header.name, sizeof(header.name)));
    read.numNodes = header.numNodes;
    read.totalInstructions = header.totalInstructions;
    read.warmupRecords = header.warmupRecords;
    read.warmupInstructions = header.warmupInstructions;
    read.records.resize(header.recordCount);
    if (header.recordCount &&
        std::fread(read.records.data(), sizeof(TraceRecord),
                   header.recordCount, f.get()) != header.recordCount) {
        return fail(detail::formatString(
            "truncated trace records in '%s'", path.c_str()));
    }

    // Records index per-node arrays in the evaluators: each must name
    // nodes of the header's machine.
    const std::uint32_t nodes = header.numNodes;
    const std::uint64_t outside =
        nodes == DestinationSet::maskNodes ? 0 : ~std::uint64_t{0} << nodes;
    for (std::size_t i = 0; i < read.records.size(); ++i) {
        const TraceRecord &r = read.records[i];
        if (r.requester >= nodes ||
            (r.responder >= nodes &&
             r.responder != TraceRecord::memoryResponder) ||
            (r.requiredMask & outside) != 0 ||
            r.type > static_cast<std::uint8_t>(RequestType::GetExclusive)) {
            return fail(detail::formatString(
                "'%s' record %zu names a requester, responder, required "
                "node or request type outside its %u-node machine",
                path.c_str(), i, nodes));
        }
    }
    trace = std::move(read);
    return true;
}

Trace
readTrace(const std::string &path)
{
    Trace trace;
    std::string why;
    if (!tryReadTrace(path, trace, why))
        dsp_fatal("%s", why.c_str());
    return trace;
}

} // namespace dsp
