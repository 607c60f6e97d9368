#include "workloads.hh"

#include <sys/stat.h>

#include <cstdio>
#include <memory>

#include "analysis/trace_collector.hh"
#include "coherence/trace_protocols.hh"
#include "core/factory.hh"
#include "workload/presets.hh"

namespace perfbench {

using namespace dsp;

namespace {

// Sizes: each rep is a fixed-size batch run of 1.5-2.5 s on a 4-core
// x86-64 host, so a 30 s run holds 12-20 reps and reports their
// median.
const std::vector<TimingSpec> timingSpecs = {
    // The paper's headline machine: 16 nodes, flat crossbar, one
    // ordering point, multicast snooping with owner/group prediction.
    {"mc16-oltp", "oltp", 0.25, 16, ProtocolKind::Multicast, 1, 0, 0.0,
     1, 200000, 100000, 1000000},
    // configs/fig6_scaling.conf's machine shape at 64 nodes: 4 hubs,
    // clusters of 16, 15 ns switch legs; broadcast snooping on 2
    // host threads.
    {"snoop64-barnes-k2", "barnes", 0.25, 64, ProtocolKind::Snooping,
     4, 16, 15.0, 2, 200000, 25000, 250000},
};

const std::vector<TraceSpec> traceSpecs = {
    {"trace-fig5-apache", "apache", 1.0, 16, 300000, 200000},
};

double
seconds(std::int64_t from, std::int64_t to)
{
    return static_cast<double>(to - from) / 1e9;
}

} // namespace

const TimingSpec *
findTimingSpec(const std::string &name)
{
    for (const TimingSpec &spec : timingSpecs)
        if (spec.name == name)
            return &spec;
    return nullptr;
}

const TraceSpec *
findTraceSpec(const std::string &name)
{
    for (const TraceSpec &spec : traceSpecs)
        if (spec.name == name)
            return &spec;
    return nullptr;
}

PredictorConfig
predictorConfig(NodeId nodes)
{
    PredictorConfig config;
    config.numNodes = nodes;
    config.entries = 8192;
    config.indexing = IndexingMode::Macroblock1024;
    return config;
}

SystemParams
systemParams(const TimingSpec &spec, unsigned shards)
{
    SystemParams params;
    params.nodes = spec.nodes;
    params.protocol = spec.protocol;
    params.policy = PredictorPolicy::OwnerGroup;
    params.predictor = predictorConfig(spec.nodes);
    params.cpuModel = CpuModel::Simple;
    params.shards = shards;
    params.crossbar.topology.hubs = spec.hubs;
    params.crossbar.topology.cluster_size = spec.cluster;
    params.crossbar.topology.switch_link_ns = spec.switchNs;
    params.functionalWarmupMisses = spec.functionalWarmupMisses;
    params.warmupInstrPerCpu = spec.warmupInstrPerCpu;
    params.measureInstrPerCpu = spec.measureInstrPerCpu;
    return params;
}

JsonObject
RepTimes::json() const
{
    JsonObject o;
    o.num("setup_s", setupS)
        .num("wall_s", wallS)
        .num("cpu_s", cpuS)
        .num("sim_minstr_per_s", simMinstrPerS);
    return o;
}

TimingRep
runTimingRep(const TimingSpec &spec, std::uint64_t seed, unsigned shards,
             Spans *spans)
{
    TimingRep rep;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<System> system;

    std::int64_t setup_start = nowNs();
    {
        ScopedSpan setup(spans, "setup");
        {
            ScopedSpan span(spans, "setup.makeWorkload", setup.id());
            workload = makeWorkload(spec.workload, spec.nodes, seed,
                                    spec.scale);
        }
        ScopedSpan span(spans, "setup.System", setup.id());
        system = std::make_unique<System>(*workload,
                                          systemParams(spec, shards));
    }
    std::int64_t run_start = nowNs();
    std::int64_t cpu_start = cpuNs();
    {
        ScopedSpan span(spans, "System::run");
        rep.stats = system->run();
    }
    std::int64_t cpu_end = cpuNs();
    std::int64_t run_end = nowNs();

    rep.times.setupS = seconds(setup_start, run_start);
    rep.times.wallS = seconds(run_start, run_end);
    rep.times.cpuS = seconds(cpu_start, cpu_end);
    rep.times.simMinstrPerS =
        static_cast<double>(rep.stats.instructions) /
        rep.stats.wallSeconds / 1e6;
    for (NodeId p = 0; p < spec.nodes; ++p)
        rep.consumed.push_back(workload->consumed(p));
    return rep;
}

JsonObject
timingStatsJson(const SystemStats &s)
{
    JsonObject o;
    o.count("runtimeTicks", s.runtimeTicks)
        .count("instructions", s.instructions)
        .count("misses", s.misses)
        .count("retries", s.retries)
        .count("doubleRetries", s.doubleRetries)
        .count("indirections", s.indirections)
        .count("cacheToCache", s.cacheToCache)
        .count("requestMessages", s.requestMessages)
        .count("writebacks", s.writebacks)
        .count("trafficBytes", s.trafficBytes)
        .num("avgMissLatencyNs", s.avgMissLatencyNs)
        .count("cacheAccesses", s.cacheAccesses)
        .count("l0Hits", s.l0Hits);
    return o;
}

TraceRep
runTraceRep(const TraceSpec &spec, std::uint64_t seed,
            const std::string &trace_path, Spans *spans)
{
    TraceRep rep;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<TraceCollector> collector;

    std::int64_t setup_start = nowNs();
    {
        ScopedSpan setup(spans, "setup");
        {
            ScopedSpan span(spans, "setup.makeWorkload", setup.id());
            workload = makeWorkload(spec.workload, spec.nodes, seed,
                                    spec.scale);
        }
        ScopedSpan span(spans, "setup.TraceCollector", setup.id());
        collector = std::make_unique<TraceCollector>(*workload);
    }

    std::int64_t run_start = nowNs();
    std::int64_t cpu_start = cpuNs();
    ScopedSpan pipeline(spans, "pipeline");
    {
        ScopedSpan span(spans, "TraceCollector::collect", pipeline.id());
        rep.trace =
            collector->collect(spec.warmupMisses, spec.measuredMisses);
    }
    std::int64_t collected = nowNs();
    {
        ScopedSpan span(spans, "writeTrace", pipeline.id());
        if (!writeTrace(rep.trace, trace_path))
            dsp_fatal("cannot write trace to %s", trace_path.c_str());
    }
    std::int64_t written = nowNs();
    Trace back;
    {
        ScopedSpan span(spans, "readTrace", pipeline.id());
        back = readTrace(trace_path);
    }
    std::int64_t read = nowNs();

    PredictorEvaluator evaluator(spec.nodes);
    {
        ScopedSpan span(spans, "evaluateBaseline.snooping",
                        pipeline.id());
        BroadcastSnoopingModel snooping(spec.nodes);
        rep.rows.push_back(evaluator.evaluateBaseline(back, snooping));
    }
    {
        ScopedSpan span(spans, "evaluateBaseline.directory",
                        pipeline.id());
        DirectoryModel directory(spec.nodes);
        rep.rows.push_back(evaluator.evaluateBaseline(back, directory));
    }
    std::int64_t baselines = nowNs();
    PredictorConfig config = predictorConfig(spec.nodes);
    for (PredictorPolicy policy : proposedPolicies()) {
        ScopedSpan span(spans, "evaluatePredictor." + toString(policy),
                        pipeline.id());
        rep.rows.push_back(
            evaluator.evaluatePredictor(back, policy, config));
    }
    std::int64_t cpu_end = cpuNs();
    std::int64_t run_end = nowNs();

    rep.times.setupS = seconds(setup_start, run_start);
    rep.times.wallS = seconds(run_start, run_end);
    rep.times.cpuS = seconds(cpu_start, cpu_end);
    rep.collectS = seconds(run_start, collected);
    rep.writeS = seconds(collected, written);
    rep.readS = seconds(written, read);
    rep.evalBaselinesS = seconds(read, baselines);
    rep.evalPredictorsS = seconds(baselines, run_end);
    rep.times.simMinstrPerS =
        static_cast<double>(rep.trace.totalInstructions) /
        rep.collectS / 1e6;

    struct stat st{};
    if (::stat(trace_path.c_str(), &st) == 0)
        rep.fileBytes = static_cast<std::uint64_t>(st.st_size);
    std::remove(trace_path.c_str());

    rep.readBackIdentical =
        back.warmupRecords == rep.trace.warmupRecords &&
        back.totalInstructions == rep.trace.totalInstructions &&
        sameRecords(back.records, rep.trace.records);
    for (NodeId p = 0; p < spec.nodes; ++p)
        rep.consumed.push_back(workload->consumed(p));
    return rep;
}

namespace {

/** Feeds the low `bytes` bytes of `value` into an FNV-1a hash. */
void
fnv(std::uint64_t &hash, std::uint64_t value, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
}

} // namespace

std::uint64_t
recordChecksum(const std::vector<TraceRecord> &records)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const TraceRecord &r : records) {
        fnv(hash, r.addr, 8);
        fnv(hash, r.pc, 8);
        DestinationSet required = r.required();
        fnv(hash, required.count(), 4);
        required.forEach([&](NodeId n) { fnv(hash, n, 4); });
        fnv(hash, r.requester, 4);
        fnv(hash, r.responder, 4);
        fnv(hash, r.type, 1);
    }
    return hash;
}

bool
sameRecords(const std::vector<TraceRecord> &a,
            const std::vector<TraceRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const TraceRecord &x = a[i];
        const TraceRecord &y = b[i];
        if (x.addr != y.addr || x.pc != y.pc ||
            !(x.required() == y.required()) ||
            x.requester != y.requester || x.responder != y.responder ||
            x.type != y.type)
            return false;
    }
    return true;
}

JsonObject
traceStatsJson(const TraceRep &rep)
{
    std::vector<std::string> labels = {"snooping", "directory"};
    for (PredictorPolicy policy : proposedPolicies())
        labels.push_back(toString(policy));
    JsonObject o;
    o.count("records", rep.trace.records.size())
        .count("warmupRecords", rep.trace.warmupRecords)
        .count("totalInstructions", rep.trace.totalInstructions)
        .str("recordChecksum",
             std::to_string(recordChecksum(rep.trace.records)))
        .boolean("readBackIdentical", rep.readBackIdentical);
    for (std::size_t i = 0; i < rep.rows.size(); ++i) {
        const EvalResult &r = rep.rows[i];
        JsonObject row;
        row.count("misses", r.misses)
            .num("requestMessagesPerMiss", r.requestMessagesPerMiss)
            .num("indirectionPct", r.indirectionPct)
            .num("retriesPerMiss", r.retriesPerMiss)
            .num("trafficBytesPerMiss", r.trafficBytesPerMiss)
            .num("cacheToCachePct", r.cacheToCachePct)
            .num("predictedSetSize", r.predictedSetSize);
        o.obj(labels[i], row);
    }
    return o;
}

} // namespace perfbench
