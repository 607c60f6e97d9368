/**
 * @file
 * The Owner predictor (Table 3, column 1).
 *
 * Targets pairwise sharing and bandwidth-limited systems: it records
 * the last processor to invalidate or respond with a block and adds at
 * most that one node to the minimal destination set.
 */

#ifndef DSP_CORE_OWNER_PREDICTOR_HH
#define DSP_CORE_OWNER_PREDICTOR_HH

#include "checkpoint/checkpoint.hh"
#include "core/predictor.hh"
#include "core/predictor_table.hh"

namespace dsp {

/** Per-entry state: predicted owner id + valid bit. */
struct OwnerEntry {
    NodeId owner = invalidNode;
    bool valid = false;
};

class OwnerPredictor : public Predictor
{
  public:
    explicit OwnerPredictor(const PredictorConfig &config)
        : Predictor(config), table_(config.entries, config.ways)
    {
    }

    DestinationSet
    predict(Addr addr, Addr pc, RequestType type, NodeId requester,
            NodeId home) override;

    void trainResponse(Addr addr, Addr pc, NodeId responder,
                       bool insufficient) override;
    void trainExternalRequest(Addr addr, Addr pc, RequestType type,
                              NodeId requester) override;

    std::string name() const override { return "owner"; }
    std::size_t entryCount() const override { return table_.size(); }

    unsigned
    entryBits() const override
    {
        // log2(N)-bit owner id + valid bit.
        unsigned bits = 1;
        while ((1u << bits) < config_.numNodes)
            ++bits;
        return bits + 1;
    }

    /** Expose the table for whitebox tests. */
    PredictorTable<OwnerEntry> &table() { return table_; }

    void ckptSave(ckpt::Writer &w) const override { table_.ckptSave(w); }
    void ckptLoad(ckpt::Reader &r) override { table_.ckptLoad(r); }

  private:
    PredictorTable<OwnerEntry> table_;
};

} // namespace dsp

#endif // DSP_CORE_OWNER_PREDICTOR_HH
