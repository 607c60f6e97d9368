/**
 * @file
 * Shared command-line handling for the table/figure reproduction
 * benches. Every bench accepts:
 *   --scale F     workload footprint scale, 1e-4..64 (default 1.0)
 *   --warmup N    warmup misses before measuring (default 150k)
 *   --measure N   measured misses, >= 1 (default 400k)
 *   --seed S      RNG seed (default 1)
 *   --workload W  restrict to one workload (default: all six)
 *   --nodes N     processors, 2..256 (default 16); the trace-driven
 *                 benches stop at 64 (trace records hold one mask word)
 *   --hubs N      address-interleaved ordering hubs, 1..64 (default 1)
 *   --cluster N   nodes per cluster, 0 = flat machine (default 0);
 *                 must divide --nodes
 *   --switch-ns F switch<->global interconnect leg in ns, 0..1e6
 *                 (default 0)
 *   --csv         emit CSV instead of aligned tables
 * Numeric values are parsed strictly (parseUint/parseDouble): a value
 * that is not a number, or is out of range, exits 1 with a `fatal:`
 * line.
 */

#ifndef DSP_BENCH_BENCH_COMMON_HH
#define DSP_BENCH_BENCH_COMMON_HH

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/trace_collector.hh"
#include "interconnect/topology.hh"
#include "mem/destination_set.hh"
#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "trace/trace.hh"
#include "workload/presets.hh"

namespace dsp {
namespace bench {

struct Options {
    double scale = 1.0;
    std::uint64_t warmupMisses = 600000;
    std::uint64_t measureMisses = 200000;
    std::uint64_t seed = 1;
    NodeId nodes = 16;
    unsigned hubs = 1;
    unsigned cluster = 0;
    double switchNs = 0.0;
    bool csv = false;
    std::vector<std::string> workloads;  ///< empty = all six

    // Execution-driven (Figures 7/8) knobs. Cache/predictor warmup
    // is functional (trace-style, --warmup misses); the timing warmup
    // only needs to settle in-flight state.
    std::uint64_t cpuWarmupInstr = 100000;
    std::uint64_t cpuMeasureInstr = 1000000;
    unsigned runs = 1;  ///< perturbed runs averaged per data point
};

/** Longest run any count flag may ask for (instructions per CPU,
 *  misses): far beyond a practical run, far below 64-bit overflow of
 *  the per-CPU targets built from it. */
constexpr std::uint64_t maxRunLength = 1000000000000ull;

/**
 * Strictly parse a numeric flag value: decimal digits only (no sign,
 * no spaces, no trailing text) and inside [lo, hi]; anything else is
 * a clean fatal error naming the flag and its range, not a downstream
 * panic, a silent wrap-around, or a silently ignored value.
 */
inline std::uint64_t
parseUint(const char *flag, const char *text, std::uint64_t lo,
          std::uint64_t hi)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno != 0 || v < lo || v > hi) {
        dsp_fatal("%s '%s': expected an integer in %llu..%llu", flag,
                  text, static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    }
    return v;
}

/** parseUint() for a finite decimal number in [lo, hi]. */
inline double
parseDouble(const char *flag, const char *text, double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (end == text || std::isspace(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno != 0 || !std::isfinite(v) || v < lo ||
        v > hi) {
        dsp_fatal("%s '%s': expected a number in %g..%g", flag, text, lo,
                  hi);
    }
    return v;
}

/** --nodes: an integer in 2..maxNodes. */
inline NodeId
parseNodes(const char *text)
{
    return static_cast<NodeId>(parseUint("--nodes", text, 2, maxNodes));
}

/** --hubs: 1..Topology::maxHubs ordering points. */
inline unsigned
parseHubs(const char *text)
{
    return static_cast<unsigned>(
        parseUint("--hubs", text, 1, Topology::maxHubs));
}

/** --cluster: nodes per cluster, 0 (flat) .. maxNodes; whether it
 *  divides the node count is checkTopology()'s call. */
inline unsigned
parseCluster(const char *text)
{
    return static_cast<unsigned>(parseUint("--cluster", text, 0, maxNodes));
}

/** --switch-ns: the switch<->global leg, 0..1e6 ns. */
inline double
parseSwitchNs(const char *text)
{
    return parseDouble("--switch-ns", text, 0.0, 1e6);
}

/** Reject machine shapes the topology cannot build, before any System
 *  (or trace collector) exists to panic on them. */
inline void
checkTopology(NodeId nodes, unsigned cluster)
{
    if (cluster != 0 && nodes % cluster != 0)
        dsp_fatal("--cluster %u does not divide --nodes %u", cluster,
                  nodes);
}

inline Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                dsp_fatal("missing value for option '%s'", arg.c_str());
            return argv[++i];
        };
        if (arg == "--scale") {
            opt.scale = parseDouble("--scale", next(), 1e-4, 64.0);
        } else if (arg == "--warmup") {
            opt.warmupMisses =
                parseUint("--warmup", next(), 0, maxRunLength);
        } else if (arg == "--measure") {
            opt.measureMisses =
                parseUint("--measure", next(), 1, maxRunLength);
        } else if (arg == "--seed") {
            opt.seed = parseUint("--seed", next(), 0, UINT64_MAX);
        } else if (arg == "--nodes") {
            opt.nodes = parseNodes(next());
        } else if (arg == "--hubs") {
            opt.hubs = parseHubs(next());
        } else if (arg == "--cluster") {
            opt.cluster = parseCluster(next());
        } else if (arg == "--switch-ns") {
            opt.switchNs = parseSwitchNs(next());
        } else if (arg == "--workload") {
            opt.workloads.push_back(next());
        } else if (arg == "--cpu-warmup") {
            opt.cpuWarmupInstr =
                parseUint("--cpu-warmup", next(), 0, maxRunLength);
        } else if (arg == "--cpu-measure") {
            opt.cpuMeasureInstr =
                parseUint("--cpu-measure", next(), 1, maxRunLength);
        } else if (arg == "--runs") {
            opt.runs =
                static_cast<unsigned>(parseUint("--runs", next(), 1, 1000));
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "options: --scale F --warmup N --measure N "
                         "--seed S --nodes N --hubs N --cluster N "
                         "--switch-ns F --workload W --csv\n"
                         "--nodes takes 2..%u; trace-driven benches "
                         "(figures 2-6, table 2, ablation) take at most "
                         "%u, the trace format's single-word masks\n",
                         maxNodes, DestinationSet::maskNodes);
            std::exit(0);
        } else {
            dsp_fatal("unknown option '%s'", arg.c_str());
        }
    }
    checkTopology(opt.nodes, opt.cluster);
    if (opt.workloads.empty())
        opt.workloads = workloadNames();
    return opt;
}

/** FNV-1a hash of a C string: the in-process trace-cache key. */
inline std::uint64_t
traceCacheKey(const char *s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (; *s != '\0'; ++s) {
        h ^= static_cast<unsigned char>(*s);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The ./traces/ file caching (workload, options)'s annotated trace;
 *  the name encodes every parameter that affects trace contents. */
inline std::string
traceCachePath(const Options &opt, const std::string &name)
{
    char file[512];
    std::snprintf(file, sizeof(file),
                  "traces/%s_n%u_s%llu_sc%.3f_w%llu_m%llu.dsptrace",
                  name.c_str(), opt.nodes,
                  static_cast<unsigned long long>(opt.seed), opt.scale,
                  static_cast<unsigned long long>(opt.warmupMisses),
                  static_cast<unsigned long long>(opt.measureMisses));
    return file;
}

/**
 * Load a cached annotated trace for (workload, options) or collect and
 * cache one. Two cache levels, both keyed by every parameter that
 * affects trace contents: a FlatMap memo inside the process (so a
 * bench that revisits a configuration never re-reads, let alone
 * re-collects, and no caller copies the record vector) and
 * traceCachePath() on disk shared across bench binaries. A cached file
 * that is stale or unreadable (truncated, garbled, an older format)
 * is recollected and rewritten with a warning.
 *
 * The returned reference points at the memo-owned trace; it stays
 * valid across further getOrCollectTrace calls (entries are held by
 * pointer, so map growth never moves a Trace).
 */
inline const Trace &
getOrCollectTrace(const Options &opt, const std::string &name)
{
    const std::string file = traceCachePath(opt, name);

    // The file name encodes the full parameter tuple, so its hash is
    // the memo key. (Cold table; FlatMap to finish the repo-wide
    // flat-map adoption rather than for speed.)
    static FlatMap<std::uint64_t, std::unique_ptr<Trace>> memo;
    const std::uint64_t key = traceCacheKey(file.c_str());
    if (auto it = memo.find(key); it != memo.end() &&
                                  it->second->workloadName == name) {
        return *it->second;
    }

    if (std::FILE *f = std::fopen(file.c_str(), "rb")) {
        std::fclose(f);
        auto trace = std::make_unique<Trace>();
        std::string why;
        if (!tryReadTrace(file, *trace, why)) {
            dsp_warn("unreadable trace cache: %s; recollecting",
                     why.c_str());
        } else if (trace->workloadName == name &&
                   trace->numNodes == opt.nodes &&
                   trace->warmupRecords == opt.warmupMisses &&
                   trace->size() ==
                       opt.warmupMisses + opt.measureMisses) {
            return *memo.emplace(key, std::move(trace))
                        .first->second;
        } else {
            dsp_warn("stale trace cache '%s'; recollecting",
                     file.c_str());
        }
    }

    auto workload = makeWorkload(name, opt.nodes, opt.seed, opt.scale);
    TraceCollector collector(*workload);
    auto trace = std::make_unique<Trace>(
        collector.collect(opt.warmupMisses, opt.measureMisses));

    mkdir("traces", 0755);
    if (!writeTrace(*trace, file))
        dsp_warn("could not cache trace to '%s'", file.c_str());
    return *memo.emplace(key, std::move(trace)).first->second;
}

} // namespace bench
} // namespace dsp

#endif // DSP_BENCH_BENCH_COMMON_HH
