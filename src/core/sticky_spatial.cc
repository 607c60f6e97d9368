#include "core/sticky_spatial.hh"

#include "sim/logging.hh"

namespace dsp {

StickySpatialPredictor::StickySpatialPredictor(
    const PredictorConfig &config, unsigned spatial_degree)
    : Predictor(config), spatialDegree_(spatial_degree)
{
    if (config.numNodes > DestinationSet::maskNodes)
        dsp_fatal("sticky-spatial supports at most %u nodes (its "
                  "entries hold single-word destination masks), not %u",
                  DestinationSet::maskNodes, config.numNodes);
    if (config.entries > 0)
        finite_.resize(config.entries);
}

std::uint64_t
StickySpatialPredictor::maskAt(std::uint64_t key) const
{
    if (!finite_.empty()) {
        const Entry &entry = finite_[key % finite_.size()];
        // Prediction deliberately ignores the tag (Section 3.5).
        return entry.valid ? entry.mask : 0;
    }
    auto it = unbounded_.find(key);
    return it == unbounded_.end() ? 0 : it->second;
}

DestinationSet
StickySpatialPredictor::predict(Addr addr, Addr pc,
                                RequestType /* type */,
                                NodeId requester, NodeId home)
{
    std::uint64_t key = indexKey(config_.indexing, addr, pc);
    std::uint64_t mask = maskAt(key);
    for (unsigned d = 1; d <= spatialDegree_; ++d) {
        mask |= maskAt(key + d);
        mask |= maskAt(key - d);  // unsigned wrap is harmless here
    }
    return DestinationSet::fromMask(mask)
         | minimalSet(requester, home);
}

void
StickySpatialPredictor::trainUp(std::uint64_t key, std::uint64_t bits)
{
    if (bits == 0)
        return;
    if (!finite_.empty()) {
        Entry &entry = finite_[key % finite_.size()];
        if (!entry.valid || entry.tag != key) {
            // Replacement is the only train-down mechanism.
            entry.valid = true;
            entry.tag = key;
            entry.mask = bits;
        } else {
            entry.mask |= bits;
        }
        return;
    }
    unbounded_[key] |= bits;
}

void
StickySpatialPredictor::trainResponse(Addr addr, Addr pc,
                                      NodeId responder,
                                      bool /* insufficient */)
{
    if (responder == invalidNode)
        return;  // sticky: memory responses teach nothing
    trainUp(indexKey(config_.indexing, addr, pc),
            DestinationSet::of(responder).mask());
}

void
StickySpatialPredictor::trainExternalRequest(Addr /* addr */,
                                             Addr /* pc */,
                                             RequestType /* type */,
                                             NodeId /* requester */)
{
    // Sticky-Spatial trains only on responses and directory retries
    // (Section 3.5); external requests are not a training cue.
}

void
StickySpatialPredictor::trainRetry(Addr addr, Addr pc,
                                   DestinationSet true_required)
{
    trainUp(indexKey(config_.indexing, addr, pc), true_required.mask());
}

std::size_t
StickySpatialPredictor::entryCount() const
{
    if (!finite_.empty()) {
        std::size_t n = 0;
        for (const Entry &entry : finite_)
            n += entry.valid ? 1 : 0;
        return n;
    }
    return unbounded_.size();
}

} // namespace dsp
