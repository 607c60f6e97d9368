/**
 * @file
 * The Broadcast-If-Shared predictor (Table 3, column 2).
 *
 * Targets latency over bandwidth: broadcast whenever the block appears
 * shared (2-bit saturating counter above threshold), otherwise send the
 * minimal set. Performs like snooping while filtering out requests to
 * unshared data.
 */

#ifndef DSP_CORE_BROADCAST_IF_SHARED_HH
#define DSP_CORE_BROADCAST_IF_SHARED_HH

#include "checkpoint/checkpoint.hh"
#include "core/predictor.hh"
#include "core/predictor_table.hh"

namespace dsp {

/** Per-entry state: one 2-bit saturating counter. */
struct SharedCounterEntry {
    std::uint8_t counter = 0;  ///< saturates at 3

    void
    increment()
    {
        if (counter < 3)
            ++counter;
    }

    void
    decrement()
    {
        if (counter > 0)
            --counter;
    }
};

class BroadcastIfSharedPredictor : public Predictor
{
  public:
    explicit BroadcastIfSharedPredictor(const PredictorConfig &config)
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

    std::string name() const override { return "bcast-if-shared"; }
    std::size_t entryCount() const override { return table_.size(); }
    unsigned entryBits() const override { return 2; }

    PredictorTable<SharedCounterEntry> &table() { return table_; }

    void ckptSave(ckpt::Writer &w) const override { table_.ckptSave(w); }
    void ckptLoad(ckpt::Reader &r) override { table_.ckptLoad(r); }

  private:
    PredictorTable<SharedCounterEntry> table_;
};

} // namespace dsp

#endif // DSP_CORE_BROADCAST_IF_SHARED_HH
