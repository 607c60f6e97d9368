/**
 * @file
 * A workload is a weighted mixture of sharing-pattern regions plus an
 * instruction-work model. Each simulated processor pulls an
 * independent, deterministic reference stream from it.
 *
 * The streams are generated off the simulating thread (see
 * docs/workload_pipeline.md). Each Workload owns one producer thread,
 * started by the first next() (none in a process allowed only one
 * core), that keeps a bounded ring of references per processor topped
 * up; a consumer whose ring runs dry generates the next chunk itself.
 * A processor's stream depends only on its own Rng and its own region
 * state, so who generates it, and how far ahead, never changes a
 * draw.
 */

#ifndef DSP_WORKLOAD_WORKLOAD_HH
#define DSP_WORKLOAD_WORKLOAD_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

    /** Stops and joins the producer thread. */
    ~Workload();

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Append a region with a relative selection weight. Only before
     *  the first next(). */
    void addRegion(std::unique_ptr<Region> region, double weight);

    /**
     * Next reference for processor p. Deterministic per (seed, p).
     *
     * Pops from p's ring. Every ringStep references it publishes its
     * position to the producer and takes the next window. When the
     * ring is empty it generates the next chunk itself, on this
     * thread; it blocks (on the lane's mutex, never spinning) only
     * while the producer is generating a chunk for the same ring.
     * Each processor's ring must be drained by one thread at a time;
     * the rings of different processors may be drained concurrently.
     */
    MemRef
    next(NodeId p)
    {
        dsp_assert(p < numNodes_, "processor %u out of range", p);
        Lane &lane = lanes_[p];
        if (lane.pos == lane.limit)
            take(lane);
        return lane.slots[lane.pos++ & ringMask];
    }

    /** References handed out to processor p so far. A violation repro
     *  bundle records these so a replay can bound its progress. */
    std::uint64_t consumed(NodeId p) const { return lanes_[p].pos; }

    /** How the generation pipeline behaved so far: consumer stalls on
     *  an empty ring (each generates one chunk on the consumer's
     *  thread), and producer wake-ups from sleep. */
    struct PipelineStats {
        std::uint64_t stalls = 0;
        std::uint64_t wakes = 0;
    };
    PipelineStats pipelineStats() const;

    /** True while the producer thread sleeps, or is about to: it has
     *  topped up every ring and waits for one to drop below half. */
    bool
    producerAsleep() const
    {
        return asleep_.load(std::memory_order_acquire) != 0;
    }

    const std::string &name() const { return name_; }
    NodeId numNodes() const { return numNodes_; }
    double meanWork() const { return meanWork_; }
    std::size_t regionCount() const { return regions_.size(); }
    const Region &region(std::size_t i) const { return *regions_[i]; }

    /** Sum of all region footprints, in bytes. */
    Addr totalFootprint() const;

    /**
     * Checkpoint every per-processor stream. Stops the producer and
     * fills every ring to capacity on the calling thread first, then
     * saves the generator state and the ring's pending references as
     * the `buf`/`bufPos` fields. The bytes depend only on how many
     * references each processor has consumed, not on how far the
     * producer had run. The producer restarts at the next next().
     */
    void ckptSave(ckpt::Writer &w);

    /** Restore a ckptSave() snapshot (the pending references may be
     *  fewer than a ring holds, as in snapshots of the inline
     *  generator). Rejects out-of-range positions with dsp_fatal. */
    void ckptLoad(ckpt::Reader &r);

  private:
    /** References per processor ring (power of two). */
    static constexpr std::uint32_t ringSize = 512;
    static constexpr std::uint32_t ringMask = ringSize - 1;
    /** Consumer window and producer chunk: the consumer publishes its
     *  position, and the producer its output, this often. */
    static constexpr std::uint32_t ringStep = 64;

    /** One processor's ring and generator, on separate cache lines:
     *  the consumer's, its published position, and the generator's
     *  (output position, generator state and the lock that makes
     *  whoever holds it the lane's one generator). */
    struct Lane {
        // Consumer side, read on every next().
        MemRef *slots = nullptr;    ///< this lane's ringSize slots
        std::uint64_t pos = 0;      ///< references consumed
        std::uint64_t limit = 0;    ///< pos may run up to here
        std::atomic<std::uint64_t> stalls{0};
        // Written by the consumer, read by the producer.
        /** pos, published */
        alignas(64) std::atomic<std::uint32_t> tail{0};
        // Generator side: everything below is guarded by gen.
        /** produced, published */
        alignas(64) std::atomic<std::uint32_t> head{0};
        std::mutex gen;
        std::uint64_t produced = 0;  ///< references generated
        Rng rng;
        std::size_t region = 0;
        std::uint64_t episodeLeft = 0;
    };

    std::size_t pickRegion(Rng &rng) const;

    /** Generate the lane's next n references into its ring, episode-
     *  chunked with the RNG state hoisted into a local, and publish
     *  them; n must fit the free space. Caller holds lane.gen (or
     *  the producer is stopped). */
    void generate(Lane &lane, std::uint32_t n);

    /** Consumer slow path at the end of a window: publish the
     *  position, wake the producer if the ring is under half full,
     *  and generate a chunk itself if it is empty. */
    void take(Lane &lane);

    void startProducer();
    void stopProducer();
    void wakeProducer();
    /** Producer thread body; an escaping panic is kept in error_ for
     *  the consumers to rethrow. */
    void produce();
    /** Top up every ring in ringStep chunks, round robin. Returns
     *  false when asked to stop. */
    bool topUp();
    bool anyBelowHalf() const;

    std::string name_;
    NodeId numNodes_;
    double meanWork_;
    double episodeLen_;
    /** Precomputed geometric draws (log-free on the common path). */
    GeometricSampler workGeo_;
    GeometricSampler episodeGeo_;

    std::vector<std::unique_ptr<Region>> regions_;
    std::vector<double> cumWeights_;

    std::unique_ptr<Lane[]> lanes_;
    std::unique_ptr<MemRef[]> slots_;

    std::atomic<std::uint32_t> running_{0};  ///< producer started
    std::atomic<std::uint32_t> stop_{0};
    std::atomic<std::uint32_t> asleep_{0};
    std::atomic<std::uint32_t> wakeSeq_{0};  ///< producer futex word
    std::atomic<std::uint64_t> wakes_{0};
    std::atomic<std::uint32_t> failed_{0};
    std::exception_ptr error_;  ///< written before failed_ is set
    std::mutex startMutex_;     ///< serializes concurrent first takes
    std::thread producer_;
};

} // namespace dsp

#endif // DSP_WORKLOAD_WORKLOAD_HH
