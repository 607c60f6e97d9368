/**
 * @file
 * A workload is a weighted mixture of sharing-pattern regions plus an
 * instruction-work model. Each of the 16 simulated processors pulls an
 * independent, deterministic reference stream from it.
 */

#ifndef DSP_WORKLOAD_WORKLOAD_HH
#define DSP_WORKLOAD_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/region.hh"

namespace dsp {

/** One memory reference with its preceding non-memory work. */
struct MemRef {
    std::uint32_t work = 0;  ///< non-memory instructions before this ref
    Addr addr = 0;
    Addr pc = 0;
    bool write = false;
};

/**
 * Weighted mixture of regions with per-processor episode structure:
 * a processor stays in one region for a geometrically-distributed
 * number of references (preserving burst locality) before re-drawing.
 */
class Workload
{
  public:
    /**
     * @param name workload name (Table 1 benchmark name)
     * @param num_nodes processors in the system
     * @param mean_work mean non-memory instructions per reference
     * @param seed RNG seed; change for perturbed re-runs (Section 5.2)
     * @param episode_len mean references per region episode
     */
    Workload(std::string name, NodeId num_nodes, double mean_work,
             std::uint64_t seed, double episode_len = 8.0);

    /** Append a region with a relative selection weight. */
    void addRegion(std::unique_ptr<Region> region, double weight);

    /**
     * Next reference for processor p. Deterministic per (seed, p).
     *
     * References are generated refillBatch() at a time into a per
     * -processor buffer: the episode/region/work draws for a whole
     * batch run back to back with the generator state hot, instead of
     * re-entering through the CPU model for every reference. Each
     * processor's stream is independent and generated strictly in
     * order, so the refill changes no draw (pinned by a test).
     */
    MemRef
    next(NodeId p)
    {
        dsp_assert(p < numNodes_, "processor %u out of range", p);
        ProcState &st = procs_[p];
        if (st.bufPos == st.buf.size())
            refill(st);
        ++st.consumed;
        return st.buf[st.bufPos++];
    }

    /** References handed out to processor p so far. A violation repro
     *  bundle records these so a replay can bound its progress. */
    std::uint64_t
    consumed(NodeId p) const
    {
        return procs_[p].consumed;
    }

    /** References generated per refill (test knob; default 64). */
    std::size_t refillBatch() const { return refillBatch_; }

    /**
     * Change the refill granularity (1 = generate on demand, exactly
     * the pre-batching behaviour). Only affects *when* references are
     * generated, never their values; callable mid-stream (buffered
     * references drain first).
     */
    void
    setRefillBatch(std::size_t batch)
    {
        dsp_assert(batch >= 1, "refill batch must be >= 1");
        refillBatch_ = batch;
    }

    const std::string &name() const { return name_; }
    NodeId numNodes() const { return numNodes_; }
    double meanWork() const { return meanWork_; }
    std::size_t regionCount() const { return regions_.size(); }
    const Region &region(std::size_t i) const { return *regions_[i]; }

    /** Sum of all region footprints, in bytes. */
    Addr totalFootprint() const;

    /**
     * Checkpoint every per-processor stream: RNG state, episode
     * cursor, and the refill buffer verbatim. Restoring the buffer
     * (rather than regenerating) keeps the stream byte-identical even
     * if the restored run uses a different refill batch.
     */
    void
    ckptSave(ckpt::Writer &w) const
    {
        w.section(0x574b4c44u);  // "WKLD"
        w.u64(procs_.size());
        for (const ProcState &st : procs_) {
            for (std::uint64_t v : st.rng.ckptState())
                w.u64(v);
            w.u64(st.region);
            w.u64(st.episodeLeft);
            w.podVec(st.buf);
            w.u64(st.bufPos);
            w.u64(st.consumed);
        }
        w.u64(regions_.size());
        for (const auto &region : regions_)
            region->ckptSave(w);
    }

    void
    ckptLoad(ckpt::Reader &r)
    {
        r.section(0x574b4c44u);
        dsp_assert(r.u64() == procs_.size(),
                   "checkpoint workload processor count mismatch");
        for (ProcState &st : procs_) {
            std::array<std::uint64_t, 4> s;
            for (std::uint64_t &v : s)
                v = r.u64();
            st.rng.ckptRestore(s);
            st.region = static_cast<std::size_t>(r.u64());
            st.episodeLeft = r.u64();
            st.buf = r.podVec<MemRef>();
            st.bufPos = static_cast<std::size_t>(r.u64());
            st.consumed = r.u64();
        }
        dsp_assert(r.u64() == regions_.size(),
                   "checkpoint workload region count mismatch");
        for (auto &region : regions_)
            region->ckptLoad(r);
    }

  private:
    struct ProcState;

    std::size_t pickRegion(Rng &rng) const;

    /** Refill a processor's buffer with the next refillBatch_ refs,
     *  episode-chunked with the RNG state hoisted into locals (see
     *  the definition); draw-identical to one-at-a-time generation. */
    void refill(ProcState &st);

    std::string name_;
    NodeId numNodes_;
    double meanWork_;
    double episodeLen_;
    /** Precomputed geometric draws (log-free on the common path). */
    GeometricSampler workGeo_;
    GeometricSampler episodeGeo_;

    std::vector<std::unique_ptr<Region>> regions_;
    std::vector<double> cumWeights_;

    struct ProcState {
        Rng rng;
        NodeId proc;
        std::size_t region = 0;
        std::uint64_t episodeLeft = 0;
        /** Pre-generated references; refilled when drained. */
        std::vector<MemRef> buf;
        std::size_t bufPos = 0;
        /** References handed out (not merely buffered). */
        std::uint64_t consumed = 0;

        ProcState(Rng r, NodeId p) : rng(r), proc(p) {}
    };
    std::size_t refillBatch_ = 64;
    std::vector<ProcState> procs_;
};

} // namespace dsp

#endif // DSP_WORKLOAD_WORKLOAD_HH
