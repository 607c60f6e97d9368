/**
 * @file
 * The benchmark's three workloads and one batch run ("rep") of each.
 *
 * Every rep builds its inputs from the seed, times set-up and the run
 * separately, and returns the simulated statistics the correctness
 * gate compares (run.py holds the reference values).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/predictor_eval.hh"
#include "json.hh"
#include "spans.hh"
#include "system/system.hh"
#include "trace/trace.hh"

namespace perfbench {

/** An execution-driven run of System::run. */
struct TimingSpec {
    std::string name;
    std::string workload;
    double scale;
    dsp::NodeId nodes;
    dsp::ProtocolKind protocol;
    unsigned hubs;
    dsp::NodeId cluster;  ///< 0 = flat crossbar
    double switchNs;
    unsigned shards;  ///< host threads of the measured runs
    std::uint64_t functionalWarmupMisses;
    std::uint64_t warmupInstrPerCpu;
    std::uint64_t measureInstrPerCpu;
};

/** The Figure 5 pipeline: collect, write, read, evaluate. */
struct TraceSpec {
    std::string name;
    std::string workload;
    double scale;
    dsp::NodeId nodes;
    std::uint64_t warmupMisses;
    std::uint64_t measuredMisses;
};

/** Null when `name` is not a workload of that kind. */
const TimingSpec *findTimingSpec(const std::string &name);
const TraceSpec *findTraceSpec(const std::string &name);

dsp::SystemParams systemParams(const TimingSpec &spec, unsigned shards);

/** The predictor configuration of the multicast and Figure 5 runs:
 *  8192 entries, 1024 B macroblocks (the paper's standouts). */
dsp::PredictorConfig predictorConfig(dsp::NodeId nodes);

/** End-to-end timings of one rep. */
struct RepTimes {
    double setupS = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
    double simMinstrPerS = 0.0;

    JsonObject json() const;
};

struct TimingRep {
    RepTimes times;
    dsp::SystemStats stats;
    /** References each CPU took from the workload (warmup included). */
    std::vector<std::uint64_t> consumed;
};

TimingRep runTimingRep(const TimingSpec &spec, std::uint64_t seed,
                       unsigned shards, Spans *spans);

/** The simulated statistics the correctness gate checks; host
 *  counters (events, calendar ops, prefetches) are left out. */
JsonObject timingStatsJson(const dsp::SystemStats &stats);

struct TraceRep {
    RepTimes times;
    double collectS = 0.0;
    double writeS = 0.0;
    double readS = 0.0;
    double evalBaselinesS = 0.0;
    double evalPredictorsS = 0.0;
    std::uint64_t fileBytes = 0;
    /** The collected trace and the one read back from the file. */
    dsp::Trace trace;
    bool readBackIdentical = false;
    /** snooping, directory, then proposedPolicies() in order. */
    std::vector<dsp::EvalResult> rows;
    std::vector<std::uint64_t> consumed;
};

TraceRep runTraceRep(const TraceSpec &spec, std::uint64_t seed,
                     const std::string &trace_path, Spans *spans);

/** Every Figure 5 row plus the record count and checksum. */
JsonObject traceStatsJson(const TraceRep &rep);

/** FNV-1a over each record's fields in a fixed order and width: addr,
 *  pc, the required node count and ids ascending, requester,
 *  responder, type. Independent of TraceRecord's in-memory layout. */
std::uint64_t recordChecksum(const std::vector<dsp::TraceRecord> &r);

/** Whether both hold the same records, compared field by field. */
bool sameRecords(const std::vector<dsp::TraceRecord> &a,
                 const std::vector<dsp::TraceRecord> &b);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
