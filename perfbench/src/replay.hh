/**
 * @file
 * The traced run's layer-by-layer replay.
 *
 * Per-call timing would swamp calls of ~100 ns, so each layer is
 * timed as one phase over many calls to its public functions, on the
 * same seed's inputs:
 *
 *  - workload: Workload::next for as many references per CPU as the
 *    measured run consumed;
 *  - mem + coherence: the functional loop of TraceCollector::step and
 *    handleMiss (NodeCaches access/fill/invalidate/downgrade/
 *    l0Invalidate, SharingTracker apply/evict*), with per-call spans
 *    around the tracker calls only;
 *  - core: Predictor::predict and the train calls over the misses;
 *  - interconnect + sim: OrderedCrossbar::sendOrdered on a standalone
 *    EventQueue, drained with EventQueue::step.
 *
 * References are generated in chunks and interleaved exactly as the
 * trace collector does (least-advanced CPU first), so the functional
 * loop's misses are the collector's misses bit for bit.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/factory.hh"
#include "interconnect/crossbar.hh"
#include "mem/node_caches.hh"
#include "spans.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

namespace perfbench {

struct FunctionalReplay {
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;
    std::uint64_t cacheToCache = 0;
    std::uint64_t trackerCalls = 0;

    double genNs = 0.0;      ///< Workload::next
    double pickNs = 0.0;     ///< least-advanced CPU interleaving
    double loopNs = 0.0;     ///< caches + tracker, spans included
    double trackerNs = 0.0;  ///< sum of the tracker spans

    /** Cache counters summed over nodes. */
    std::uint64_t accesses = 0;
    std::uint64_t l0Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t wordTouches = 0;

    std::vector<dsp::TraceRecord> records;
};

/**
 * Replay `refs_per_cpu[p]` references of each CPU of `workload` (a
 * fresh instance with the measured run's seed) through the functional
 * loop. Phase times are added to `spans` as aggregates under `parent`.
 */
FunctionalReplay replayFunctional(
    dsp::Workload &workload,
    const std::vector<std::uint64_t> &refs_per_cpu,
    const dsp::CacheParams &caches, Spans &spans, int parent);

struct CoreReplay {
    double predictAndTrainNs = 0.0;  ///< pass 1: predict + train
    double trainOnlyNs = 0.0;        ///< pass 2: the same training
    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    std::uint64_t sufficient = 0;  ///< prediction covered the need
    std::uint64_t setSizeSum = 0;

    double predictNs() const { return predictAndTrainNs - trainOnlyNs; }
};

/**
 * One predictor per node over `records`, trained as the system's
 * functional warmup trains them. Timed twice -- predict + train, then
 * train alone on fresh predictors with the recorded predictions -- so
 * predict time is the difference. Predictions go to `predicted`.
 */
CoreReplay replayPredictors(const std::vector<dsp::TraceRecord> &records,
                            dsp::NodeId nodes, dsp::PredictorPolicy policy,
                            const dsp::PredictorConfig &config,
                            std::vector<dsp::DestinationSet> &predicted);

struct NetReplay {
    double sendNs = 0.0;   ///< inside sendOrdered
    double drainNs = 0.0;  ///< inside EventQueue::step
    std::uint64_t misses = 0;
    std::uint64_t sends = 0;  ///< requests plus retries
    std::uint64_t deliveries = 0;
    std::uint64_t events = 0;
};

/**
 * Send every miss of `records` as an ordered request carrying its
 * destination set: `predicted[i]` (plus a retry to the needed set
 * when the prediction fell short), or every node when `predicted` is
 * empty (broadcast snooping).
 */
NetReplay replayCrossbar(std::span<const dsp::TraceRecord> records,
                         dsp::NodeId nodes,
                         const dsp::CrossbarParams &params,
                         std::span<const dsp::DestinationSet> predicted);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
