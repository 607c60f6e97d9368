#include "trace/trace.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

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

Trace
readTrace(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        dsp_fatal("cannot open trace file '%s'", path.c_str());

    TraceHeader header;
    if (std::fread(&header, sizeof(header), 1, f.get()) != 1)
        dsp_fatal("truncated trace header in '%s'", path.c_str());
    if (header.magic != traceMagic)
        dsp_fatal("'%s' is not a dsp trace file", path.c_str());
    if (header.version != traceVersion)
        dsp_fatal("trace version %u unsupported (expected %u)",
                  header.version, traceVersion);

    // Every header field is checked before it sizes or indexes
    // anything: a garbled count must not reach the allocator, and a
    // zero or oversized machine must not reach homeOf().
    struct stat st;
    if (::fstat(::fileno(f.get()), &st) != 0)
        dsp_fatal("cannot stat trace file '%s'", path.c_str());
    std::uint64_t body = static_cast<std::uint64_t>(st.st_size) -
                         sizeof(header);
    if (header.recordCount != body / sizeof(TraceRecord) ||
        body % sizeof(TraceRecord) != 0) {
        dsp_fatal("'%s' declares %llu trace records but holds %llu "
                  "bytes of them (truncated or garbled)",
                  path.c_str(),
                  static_cast<unsigned long long>(header.recordCount),
                  static_cast<unsigned long long>(body));
    }
    if (header.numNodes < 1 || header.numNodes > DestinationSet::maskNodes)
        dsp_fatal("'%s' declares %u nodes (a trace holds 1..%u)",
                  path.c_str(), header.numNodes, DestinationSet::maskNodes);
    if (header.warmupRecords > header.recordCount)
        dsp_fatal("'%s' declares %llu warmup records of only %llu",
                  path.c_str(),
                  static_cast<unsigned long long>(header.warmupRecords),
                  static_cast<unsigned long long>(header.recordCount));

    Trace trace;
    trace.workloadName.assign(
        header.name, strnlen(header.name, sizeof(header.name)));
    trace.numNodes = header.numNodes;
    trace.totalInstructions = header.totalInstructions;
    trace.warmupRecords = header.warmupRecords;
    trace.warmupInstructions = header.warmupInstructions;
    trace.records.resize(header.recordCount);
    if (header.recordCount &&
        std::fread(trace.records.data(), sizeof(TraceRecord),
                   header.recordCount, f.get()) != header.recordCount) {
        dsp_fatal("truncated trace records in '%s'", path.c_str());
    }

    // Records index per-node arrays in the evaluators: each must name
    // nodes of the header's machine.
    const std::uint32_t nodes = header.numNodes;
    const std::uint64_t outside =
        nodes == DestinationSet::maskNodes ? 0 : ~std::uint64_t{0} << nodes;
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const TraceRecord &r = trace.records[i];
        if (r.requester >= nodes ||
            (r.responder >= nodes &&
             r.responder != TraceRecord::memoryResponder) ||
            (r.requiredMask & outside) != 0 ||
            r.type > static_cast<std::uint8_t>(RequestType::GetExclusive)) {
            dsp_fatal("'%s' record %zu names a requester, responder, "
                      "required node or request type outside its "
                      "%u-node machine",
                      path.c_str(), i, nodes);
        }
    }
    return trace;
}

} // namespace dsp
