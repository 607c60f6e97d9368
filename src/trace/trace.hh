/**
 * @file
 * L2-miss trace records (Section 2.1: "trace records contain the data
 * address, program counter (PC) address, requester, and request type"),
 * extended with the ground-truth transaction facts captured at
 * collection time so protocols and predictors can be replayed without
 * re-simulating the caches.
 */

#ifndef DSP_TRACE_TRACE_HH
#define DSP_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/trace_protocols.hh"
#include "mem/destination_set.hh"
#include "mem/types.hh"

namespace dsp {

/** One L2 miss, fully annotated. POD, 40 bytes on disk. */
struct TraceRecord {
    Addr addr = 0;            ///< data byte address
    Addr pc = 0;              ///< PC of the missing load/store
    std::uint64_t requiredMask = 0;  ///< caches that must observe
    std::uint32_t requester = 0;
    std::uint32_t responder = 0;     ///< memoryResponder = memory
    std::uint8_t type = 0;           ///< RequestType
    std::uint8_t pad[7] = {};

    /** Responder encoding for "memory supplies the data". */
    static constexpr std::uint32_t memoryResponder = 0xffffffffu;

    RequestType
    requestType() const
    {
        return static_cast<RequestType>(type);
    }

    DestinationSet
    required() const
    {
        return DestinationSet::fromMask(requiredMask);
    }

    /** Convert to the protocol-engine input for an n-node system. */
    MissInfo
    toMissInfo(NodeId num_nodes) const
    {
        MissInfo info;
        info.addr = addr;
        info.pc = pc;
        info.requester = requester;
        info.type = requestType();
        info.required = required();
        info.responder = responder == memoryResponder
                             ? invalidNode
                             : static_cast<NodeId>(responder);
        info.home = homeOf(blockOf(addr), num_nodes);
        return info;
    }
};

static_assert(sizeof(TraceRecord) == 40, "trace record layout changed");

/** An in-memory trace plus the execution metadata Table 2 needs. */
struct Trace {
    std::string workloadName;
    NodeId numNodes = 16;
    std::uint64_t totalInstructions = 0;  ///< across all processors

    /** The first `warmupRecords` misses warm caches and predictors and
     *  are excluded from measured statistics (Section 2.1 uses the
     *  first one million misses this way). */
    std::uint64_t warmupRecords = 0;
    std::uint64_t warmupInstructions = 0;

    std::vector<TraceRecord> records;

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }

    /** Misses after warmup. */
    std::uint64_t
    measuredRecords() const
    {
        return records.size() > warmupRecords
                   ? records.size() - warmupRecords
                   : 0;
    }

    /** Instructions executed after warmup. */
    std::uint64_t
    measuredInstructions() const
    {
        return totalInstructions > warmupInstructions
                   ? totalInstructions - warmupInstructions
                   : 0;
    }
};

/**
 * Write a trace to a binary file. Format: fixed header, then raw
 * records. The file is written beside `path` and renamed into place,
 * so `path` is either absent or complete. Returns false (with a
 * warning, and no file at `path`) on I/O failure.
 */
bool writeTrace(const Trace &trace, const std::string &path);

/**
 * Read a trace written by writeTrace(). Returns false, leaving `trace`
 * untouched and the reason in `why`, on an unopenable file or
 * malformed input: bad magic or version, a record count that
 * disagrees with the file size, a node count outside
 * 1..DestinationSet::maskNodes, more warmup records than records, or a
 * record whose requester, responder, required nodes or request type
 * lie outside the machine.
 */
bool tryReadTrace(const std::string &path, Trace &trace,
                  std::string &why);

/** tryReadTrace() that calls dsp_fatal with the reason on failure. */
Trace readTrace(const std::string &path);

} // namespace dsp

#endif // DSP_TRACE_TRACE_HH
