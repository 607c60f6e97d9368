/**
 * @file
 * perfbench_dsp: times one workload of the host-speed benchmark and
 * prints one JSON report on stdout. run.py builds and drives it,
 * applies the correctness gate, and prints the benchmark's result.
 *
 *   perfbench_dsp --workload NAME --seed N --seconds S --trace 0|1
 *                 --out DIR
 *
 * Both modes first repeat the workload's fixed-size batch run until
 * --seconds is spent and report every rep. Traced (--trace 1) then
 * adds one rep with spans around set-up and the run (its wall time
 * against the untraced median is the tracing overhead), the
 * determinism cross-check, and the layer replay (replay.hh); the
 * per-layer metrics are computed here and the spans are written to
 * DIR/spans.json.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "replay.hh"
#include "sim/event.hh"
#include "workload/presets.hh"
#include "workloads.hh"

using namespace dsp;
using namespace perfbench;

namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool traced = false;
    std::string out = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_dsp: %s\nusage: perfbench_dsp --workload "
                 "NAME --seed N --seconds S --trace 0|1 --out DIR\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value);
        else if (arg == "--trace")
            opt.traced = std::atoi(value) != 0;
        else if (arg == "--out")
            opt.out = value;
        else
            usage(("unknown option " + arg).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds is required and must be positive");
    return opt;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Run `rep` until `seconds` are spent, stopping before a rep that
 *  would overrun; at least once. */
template <typename Rep>
void
repeat(double seconds, Rep rep)
{
    std::int64_t start = nowNs();
    for (std::size_t n = 1;; ++n) {
        rep();
        double spent = static_cast<double>(nowNs() - start) / 1e9;
        if (spent + spent / static_cast<double>(n) > seconds)
            return;
    }
}

/** A rep's timings and checked statistics as one JSON object. */
std::string
repJson(const RepTimes &times, const JsonObject &stats)
{
    JsonObject o = times.json();
    o.obj("stats", stats);
    return o.text();
}

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        s += (i ? ", " : "") + items[i];
    return s + "]";
}

/** Per-layer metrics, each {"value", "unit"}. */
class Layers
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        JsonObject m;
        m.num("value", value).str("unit", unit);
        json_.obj(name, m);
    }
    const JsonObject &json() const { return json_; }

  private:
    JsonObject json_;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Layer metrics common to every workload: workload, mem and
 *  coherence from the functional replay. The span-corrected tracker
 *  time is returned through `tracker_ns`, the caches' self time
 *  through `mem_ns`. */
void
addFunctionalLayers(Layers &layers, const FunctionalReplay &f,
                    double wall_s, double clock_ns, double &mem_ns,
                    double &tracker_ns)
{
    double span_cost = clock_ns * static_cast<double>(f.trackerCalls);
    tracker_ns = std::max(0.0, f.trackerNs - span_cost);
    mem_ns = std::max(0.0, f.loopNs - f.trackerNs - span_cost);
    double wall_ns = wall_s * 1e9;

    layers.add("workload.ns_per_ref", ratio(f.genNs, f.refs), "ns");
    layers.add("workload.refs_per_miss", ratio(f.refs, f.misses),
               "count");
    layers.add("workload.share", ratio(f.genNs, wall_ns), "fraction");
    layers.add("mem.ns_per_access", ratio(mem_ns, f.refs), "ns");
    layers.add("mem.share", ratio(mem_ns, wall_ns), "fraction");
    layers.add("coherence.ns_per_txn", ratio(tracker_ns, f.trackerCalls),
               "ns");
    layers.add("coherence.share", ratio(tracker_ns, wall_ns),
               "fraction");
}

void
addCoreLayers(Layers &layers, const CoreReplay &c, double retries_per_miss,
              double wall_s)
{
    layers.add("core.ns_per_predict", ratio(c.predictNs(), c.predicts),
               "ns");
    layers.add("core.ns_per_train", ratio(c.trainOnlyNs, c.trains), "ns");
    layers.add("core.sufficient_pct",
               100.0 * ratio(c.sufficient, c.predicts), "%");
    layers.add("core.pred_set_size", ratio(c.setSizeSum, c.predicts),
               "count");
    layers.add("core.retries_per_miss", retries_per_miss, "count");
    layers.add("core.share", ratio(c.predictAndTrainNs, wall_s * 1e9),
               "fraction");
}

/** Complete a traced report: layers, cross-checks, peak RSS; the
 *  spans go to DIR/spans.json. */
std::string
finishTraced(JsonObject &report, const Layers &layers,
             const JsonObject &checks, const Spans &spans,
             const Options &opt)
{
    report.obj("layers", layers.json());
    report.obj("checks", checks);
    if (!spans.write(opt.out + "/spans.json"))
        dsp_warn("cannot write %s/spans.json", opt.out.c_str());
    report.num("peak_rss_mb", peakRssMb());
    return report.text();
}

std::string
runTiming(const TimingSpec &spec, const Options &opt)
{
    JsonObject report;
    std::vector<std::string> reps;
    std::vector<double> walls;
    repeat(opt.seconds, [&] {
        TimingRep rep = runTimingRep(spec, opt.seed, spec.shards, nullptr);
        reps.push_back(repJson(rep.times, timingStatsJson(rep.stats)));
        walls.push_back(rep.times.wallS);
    });
    report.raw("reps", jsonArray(reps));
    if (!opt.traced) {
        report.num("peak_rss_mb", peakRssMb());
        return report.text();
    }

    Spans spans;
    double clock_ns = clockReadNs();
    TimingRep traced = runTimingRep(spec, opt.seed, spec.shards, &spans);
    EventPoolStats pools = eventPoolStats();
    // Determinism cross-check: the other of 1 and 2 shards must give
    // the same statistics; the pair also yields the shard speedup.
    const unsigned cross_shards = spec.shards == 1 ? 2 : 1;
    TimingRep cross;
    {
        ScopedSpan span(&spans, "cross-check.shards=" +
                                    std::to_string(cross_shards));
        cross = runTimingRep(spec, opt.seed, cross_shards, nullptr);
    }
    bool shard_match = timingStatsJson(traced.stats).text() ==
                       timingStatsJson(cross.stats).text();
    report.raw("traced_rep",
               repJson(traced.times, timingStatsJson(traced.stats)));
    report.raw("cross_rep",
               repJson(cross.times, timingStatsJson(cross.stats)));

    int replay = spans.open("replay");
    auto fresh =
        makeWorkload(spec.workload, spec.nodes, opt.seed, spec.scale);
    FunctionalReplay f = replayFunctional(*fresh, traced.consumed,
                                          CacheParams{}, spans, replay);
    fresh.reset();
    std::vector<DestinationSet> predicted;
    CoreReplay core;
    if (spec.protocol == ProtocolKind::Multicast) {
        ScopedSpan span(&spans, "replay.core", replay);
        core = replayPredictors(f.records, spec.nodes,
                                PredictorPolicy::OwnerGroup,
                                predictorConfig(spec.nodes), predicted);
    }
    // The functional warmup's misses (the first ones of the replay,
    // which interleaves the same way) never reach the network.
    NetReplay net;
    {
        ScopedSpan span(&spans, "replay.interconnect", replay);
        std::size_t skip = std::min<std::size_t>(
            f.records.size(), spec.functionalWarmupMisses);
        std::span<const DestinationSet> sets(predicted);
        net = replayCrossbar(std::span<const TraceRecord>(f.records)
                                 .subspan(skip),
                             spec.nodes, systemParams(spec, 1).crossbar,
                             sets.empty() ? sets : sets.subspan(skip));
    }
    spans.close(replay);

    const SystemStats &s = traced.stats;
    const double wall = traced.times.wallS;
    const double wall_ns = wall * 1e9;
    const double misses = static_cast<double>(s.misses);
    Layers layers;
    double mem_ns = 0.0;
    double tracker_ns = 0.0;
    addFunctionalLayers(layers, f, wall, clock_ns, mem_ns, tracker_ns);
    layers.add("mem.l0_hit_rate", ratio(s.l0Hits, s.cacheAccesses),
               "fraction");
    layers.add("mem.misses_per_kaccess",
               1000.0 * ratio(misses, s.cacheAccesses), "count");
    layers.add("mem.touched_words_per_access",
               ratio(s.wordTouches, s.cacheAccesses), "count");
    layers.add("coherence.c2c_pct", 100.0 * ratio(s.cacheToCache, misses),
               "%");
    if (spec.protocol == ProtocolKind::Multicast)
        addCoreLayers(layers, core, ratio(s.retries, misses), wall);

    layers.add("interconnect.ns_per_send", ratio(net.sendNs, net.sends),
               "ns");
    layers.add("interconnect.deliveries_per_miss",
               ratio(net.deliveries, net.misses), "count");
    layers.add("interconnect.request_msgs_per_miss",
               ratio(s.requestMessages, misses), "count");
    layers.add("interconnect.traffic_bytes_per_miss",
               ratio(s.trafficBytes, misses), "B");
    layers.add("interconnect.share", ratio(net.sendNs, wall_ns),
               "fraction");

    double k1_wall = spec.shards == 1 ? wall : cross.times.wallS;
    double k2_wall = spec.shards == 1 ? cross.times.wallS : wall;
    layers.add("sim.ns_per_event", ratio(net.drainNs, net.events), "ns");
    layers.add("sim.events_per_miss", ratio(s.eventsExecuted, misses),
               "count");
    layers.add("sim.calendar_ops_per_miss", s.calendarOpsPerMiss(),
               "count");
    layers.add("sim.windows_per_kmiss", 1000.0 * ratio(s.windowsRun, misses),
               "count");
    layers.add("sim.barriers_per_window",
               ratio(s.barrierCrossings, s.windowsRun), "count");
    layers.add("sim.shard_speedup", ratio(k1_wall, k2_wall), "ratio");
    layers.add("sim.cpu_per_wall", ratio(traced.times.cpuS, wall),
               "ratio");
    layers.add("sim.slab_allocations",
               static_cast<double>(pools.slabAllocations), "count");
    layers.add("sim.share", ratio(net.drainNs, wall_ns), "fraction");

    double accounted = f.genNs + mem_ns + tracker_ns +
                       core.predictAndTrainNs + net.sendNs + net.drainNs;
    layers.add("system.residual_share", 1.0 - ratio(accounted, wall_ns),
               "fraction");
    layers.add("system.warmup_s", wall - s.wallSeconds, "s");

    layers.add("tracing.overhead_s", wall - median(walls), "s");
    layers.add("tracing.clock_read_ns", clock_ns, "ns");

    JsonObject checks;
    checks.boolean("shard_match", shard_match);
    return finishTraced(report, layers, checks, spans, opt);
}

std::string
runTrace(const TraceSpec &spec, const Options &opt)
{
    const std::string trace_path = opt.out + "/trace.bin";
    JsonObject report;
    std::vector<std::string> reps;
    std::vector<double> walls;
    repeat(opt.seconds, [&] {
        TraceRep rep = runTraceRep(spec, opt.seed, trace_path, nullptr);
        reps.push_back(repJson(rep.times, traceStatsJson(rep)));
        walls.push_back(rep.times.wallS);
    });
    report.raw("reps", jsonArray(reps));
    if (!opt.traced) {
        report.num("peak_rss_mb", peakRssMb());
        return report.text();
    }

    Spans spans;
    double clock_ns = clockReadNs();
    TraceRep traced = runTraceRep(spec, opt.seed, trace_path, &spans);
    report.raw("traced_rep", repJson(traced.times, traceStatsJson(traced)));

    int replay = spans.open("replay");
    auto fresh =
        makeWorkload(spec.workload, spec.nodes, opt.seed, spec.scale);
    FunctionalReplay f = replayFunctional(*fresh, traced.consumed,
                                          CacheParams{}, spans, replay);
    fresh.reset();
    const std::vector<TraceRecord> &records = traced.trace.records;
    bool records_match = sameRecords(f.records, records);

    CoreReplay core;
    std::vector<DestinationSet> predicted;
    for (PredictorPolicy policy : proposedPolicies()) {
        ScopedSpan span(&spans, "replay.core." + toString(policy), replay);
        CoreReplay c = replayPredictors(records, spec.nodes, policy,
                                        predictorConfig(spec.nodes),
                                        predicted);
        core.predictAndTrainNs += c.predictAndTrainNs;
        core.trainOnlyNs += c.trainOnlyNs;
        core.predicts += c.predicts;
        core.trains += c.trains;
        core.sufficient += c.sufficient;
        core.setSizeSum += c.setSizeSum;
    }
    spans.close(replay);

    const double wall = traced.times.wallS;
    const double n_records = static_cast<double>(records.size());
    Layers layers;
    double mem_ns = 0.0;
    double tracker_ns = 0.0;
    addFunctionalLayers(layers, f, wall, clock_ns, mem_ns, tracker_ns);
    layers.add("mem.l0_hit_rate", ratio(f.l0Hits, f.accesses), "fraction");
    layers.add("mem.misses_per_kaccess",
               1000.0 * ratio(f.l2Misses, f.accesses), "count");
    layers.add("mem.touched_words_per_access",
               ratio(f.wordTouches, f.accesses), "count");
    layers.add("coherence.c2c_pct",
               100.0 * ratio(f.cacheToCache, f.misses), "%");
    // The owner-group row: the same predictor the mc16 workload runs.
    addCoreLayers(layers, core, traced.rows.back().retriesPerMiss, wall);

    const double evals = 2.0 + proposedPolicies().size();
    layers.add("analysis.collect_s", traced.collectS, "s");
    layers.add("analysis.eval_baselines_s", traced.evalBaselinesS, "s");
    layers.add("analysis.eval_predictors_s", traced.evalPredictorsS, "s");
    layers.add("analysis.ns_per_record_policy",
               ratio((traced.evalBaselinesS + traced.evalPredictorsS) * 1e9,
                     n_records * evals),
               "ns");
    layers.add("trace.write_s", traced.writeS, "s");
    layers.add("trace.read_s", traced.readS, "s");
    layers.add("trace.bytes_per_record",
               ratio(static_cast<double>(traced.fileBytes), n_records), "B");

    layers.add("tracing.overhead_s", wall - median(walls), "s");
    layers.add("tracing.clock_read_ns", clock_ns, "ns");
    // The instrumented loop against the collect it reproduces.
    layers.add("tracing.replay_vs_collect",
               ratio((f.genNs + f.pickNs + f.loopNs) / 1e9,
                     traced.collectS),
               "ratio");

    JsonObject checks;
    checks.boolean("records_match", records_match);
    return finishTraced(report, layers, checks, spans, opt);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    std::string report;
    if (const TimingSpec *spec = findTimingSpec(opt.workload))
        report = runTiming(*spec, opt);
    else if (const TraceSpec *spec = findTraceSpec(opt.workload))
        report = runTrace(*spec, opt);
    else
        usage(("unknown workload " + opt.workload).c_str());
    std::printf("%s\n", report.c_str());
    return 0;
}
