/**
 * @file
 * Destination-set predictor interface (Section 3 of the paper).
 *
 * One predictor instance lives beside each L2 cache controller. On an
 * L2 miss the controller asks for a predicted destination set; the
 * prediction is always a superset of the protocol's *minimal* set (the
 * requester plus the block's home). Predictors learn from two cues
 * (Section 3.2): data responses for the node's own misses (carrying the
 * responder's identity) and external coherence requests the node
 * observes (carrying the requester's identity).
 */

#ifndef DSP_CORE_PREDICTOR_HH
#define DSP_CORE_PREDICTOR_HH

#include <cstdint>
#include <string>

#include "core/indexing.hh"
#include "mem/destination_set.hh"
#include "mem/types.hh"

namespace dsp {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

/** Common predictor configuration. */
struct PredictorConfig {
    NodeId numNodes = 16;

    /** Indexing policy (Section 3.4). 1024 B macroblocks by default,
     *  the paper's standout configuration. */
    IndexingMode indexing = IndexingMode::Macroblock1024;

    /** Table entries; 0 means unbounded (infinite predictor). The
     *  paper's standout predictors use 8192 entries. */
    std::size_t entries = 8192;

    /** Associativity of finite tables. Our predictors are
     *  set-associative (Section 3.5 notes this as an advantage over
     *  Sticky-Spatial's direct-mapped constraint). */
    std::size_t ways = 4;

    /**
     * Section 3.1's capacity optimization: allocate entries only for
     * blocks whose minimal destination set proved insufficient.
     * Disable to measure the optimization's value (ablation).
     */
    bool allocationFilter = true;
};

/**
 * Abstract destination-set predictor.
 *
 * Implementations: OwnerPredictor, BroadcastIfSharedPredictor,
 * GroupPredictor, OwnerGroupPredictor (Table 3), StickySpatialPredictor
 * (prior work, Section 3.5), and the AlwaysBroadcast / AlwaysMinimal
 * degenerate baselines.
 */
class Predictor
{
  public:
    explicit Predictor(const PredictorConfig &config)
        : config_(config)
    {
    }

    virtual ~Predictor() = default;

    Predictor(const Predictor &) = delete;
    Predictor &operator=(const Predictor &) = delete;

    /**
     * Predict the destination set for this node's own miss.
     *
     * The result always includes the minimal destination set
     * {requester, home}: the protocol requires both (Section 4.1) and
     * predictors only ever *add* nodes to it.
     *
     * @param addr data byte address of the miss
     * @param pc   PC of the missing load/store (used when PC-indexed)
     * @param type request type (GETS or GETX)
     * @param requester this node's id
     * @param home home node of the block
     */
    virtual DestinationSet
    predict(Addr addr, Addr pc, RequestType type, NodeId requester,
            NodeId home) = 0;

    /**
     * Train on the data response for this node's own miss.
     *
     * @param addr / pc identify the miss
     * @param responder cache that supplied the data, or invalidNode
     *        when memory responded
     * @param insufficient true if the minimal destination set would
     *        not have sufficed (used for the allocation filter of
     *        Section 3.1: entries are only allocated for blocks whose
     *        minimal set proved insufficient)
     */
    virtual void
    trainResponse(Addr addr, Addr pc, NodeId responder,
                  bool insufficient) = 0;

    /**
     * Train on an external coherence request this node observed.
     * Per Table 3, requests for shared are ignored by all policies;
     * requests for exclusive train toward the requester.
     *
     * @param pc the *requester's* miss PC (requests carry the PC only
     *        to support PC indexing, Section 3.4)
     */
    virtual void
    trainExternalRequest(Addr addr, Addr pc, RequestType type,
                         NodeId requester) = 0;

    /**
     * Optional cue: the directory retried this node's request and the
     * retry carried the corrected destination set. Only Sticky-Spatial
     * uses this (it "trains up by observing responses and retries from
     * the memory controller", Section 3.5); Table 3 policies ignore it.
     */
    virtual void
    trainRetry(Addr addr, Addr pc, DestinationSet true_required)
    {
        (void)addr;
        (void)pc;
        (void)true_required;
    }

    /** Policy name for report tables. */
    virtual std::string name() const = 0;

    /** Currently-allocated entries (for capacity studies). */
    virtual std::size_t entryCount() const = 0;

    /** Modelled entry size in bits (Table 3 row 2), tag excluded. */
    virtual unsigned entryBits() const = 0;

    /**
     * Checkpoint the learned state (tables + counters). The defaults
     * cover the stateless baselines; every stateful predictor must
     * override both, symmetrically.
     */
    virtual void ckptSave(ckpt::Writer &w) const { (void)w; }
    virtual void ckptLoad(ckpt::Reader &r) { (void)r; }

    const PredictorConfig &config() const { return config_; }

  protected:
    /** The protocol's minimal destination set. */
    DestinationSet
    minimalSet(NodeId requester, NodeId home) const
    {
        DestinationSet s;
        s.add(requester);
        s.add(home);
        return s;
    }

    PredictorConfig config_;
};

} // namespace dsp

#endif // DSP_CORE_PREDICTOR_HH
