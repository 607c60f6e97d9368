/**
 * @file
 * Sharing-pattern regions: the building blocks of synthetic workloads.
 *
 * Each region models one archetypal data structure class observed in
 * the paper's workload analysis (Section 2): private data, read-mostly
 * shared data, migratory (lock-protected) records, producer-consumer
 * buffers, group-shared partitions, and widely-shared hot blocks.
 * A workload is a weighted mixture of regions (see workload.hh).
 */

#ifndef DSP_WORKLOAD_REGION_HH
#define DSP_WORKLOAD_REGION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "mem/types.hh"
#include "sim/rng.hh"
#include "workload/zipf.hh"

namespace dsp {

/** One generated memory reference (before cache filtering). */
struct RegionRef {
    Addr addr = 0;
    Addr pc = 0;
    bool write = false;
};

/**
 * Base class: a contiguous address range with a pool of static
 * instruction addresses (PCs) whose popularity is Zipf-skewed, matching
 * Figure 4(c).
 */
class Region
{
  public:
    /** Common construction parameters. */
    struct Params {
        std::string name;
        Addr base = 0;              ///< first byte of the region
        Addr bytes = 0;             ///< region size (multiple of 64)
        std::uint32_t pcSites = 64; ///< distinct miss PCs in this region
        double pcTheta = 0.6;       ///< PC popularity skew
    };

    Region(const Params &params, NodeId num_nodes);
    virtual ~Region() = default;

    Region(const Region &) = delete;
    Region &operator=(const Region &) = delete;

    /** Generate the next reference for processor p. */
    virtual RegionRef gen(NodeId p, Rng &rng) = 0;

    const std::string &name() const { return name_; }
    Addr base() const { return base_; }
    Addr bytes() const { return bytes_; }
    std::uint64_t blocks() const { return bytes_ / blockBytes; }
    NodeId numNodes() const { return numNodes_; }

    /**
     * Checkpoint mutable generator state. Samplers and geometry are
     * config-derived (rebuilt identically on construction), so only
     * the per-processor cursors need capturing; regions without any
     * (ReadMostly, Group, Hot) inherit the no-ops.
     */
    virtual void ckptSave(ckpt::Writer &w) const { (void)w; }
    virtual void ckptLoad(ckpt::Reader &r) { (void)r; }

  protected:
    /** Byte address of block index b within the region, with a random
     *  word offset so sub-block addresses look realistic. */
    Addr addrOf(std::uint64_t block_index, Rng &rng) const;

    /** addrOf() split for draw pipelining: the word-offset draw ... */
    Addr
    wordOffset(Rng &rng) const
    {
        return rng.uniformInt(blockBytes / 8) * 8;
    }

    /** ... and the address computation with the offset pre-drawn, so
     *  a pending popularity draw (ZipfSampler::begin) can resolve
     *  after the region's other draws. */
    Addr addrAt(std::uint64_t block_index, Addr word) const;

    /** Draw a PC from this region's static-instruction pool. */
    Addr pcFor(Rng &rng) const;

  private:
    std::string name_;
    Addr base_;
    Addr bytes_;
    NodeId numNodes_;
    Addr pcBase_;
    ZipfSampler pcSampler_;
};

/**
 * Thread-private data (stack, per-connection scratch, thread heap).
 * Each processor owns an equal slice; accesses mix sequential streaming
 * with a Zipf-hot working set. Produces capacity misses serviced by
 * memory -- never cache-to-cache traffic.
 */
class PrivateRegion : public Region
{
  public:
    struct Config {
        std::uint64_t hotBlocks = 8192;  ///< per-slice hot working set
        double hotProb = 0.995;          ///< hit probability knob
        double writeFraction = 0.3;
        double seqProb = 0.05;   ///< chance to start a streaming run
        double seqRunBlocks = 16; ///< mean streaming run length
        /** Consecutive references per block while streaming: a sweep
         *  over doubles touches each 64 B block ~8 times, and those
         *  repeats hit the L1. */
        std::uint32_t seqRefsPerBlock = 8;
    };

    PrivateRegion(const Params &params, NodeId num_nodes,
                  const Config &cfg);

    RegionRef gen(NodeId p, Rng &rng) override;

    void ckptSave(ckpt::Writer &w) const override { w.podVec(procs_); }

    void
    ckptLoad(ckpt::Reader &r) override
    {
        auto v = r.podVec<ProcState>();
        dsp_assert(v.size() == procs_.size(),
                   "region proc-state count mismatch");
        procs_ = std::move(v);
    }

  private:
    Config cfg_;
    std::uint64_t sliceBlocks_;
    WorkingSetSampler slicePick_;
    RankScatterer scatter_;

    struct ProcState {
        std::uint64_t seqCursor = 0;
        std::uint64_t seqRemaining = 0;  ///< blocks left in the run
        std::uint32_t refsLeftInBlock = 0;
        std::uint32_t pad = 0;  ///< checkpoint bytes: no unset padding
    };
    static_assert(std::has_unique_object_representations_v<ProcState>);
    std::vector<ProcState> procs_;
};

/**
 * Read-mostly shared data (file cache, code-like tables, catalog
 * pages). All processors read a common Zipf-skewed set; rare writes
 * invalidate all sharers, producing bursts of widely-shared misses
 * (the all-16-processors mass in Figure 3b).
 */
class ReadMostlyRegion : public Region
{
  public:
    struct Config {
        std::uint64_t hotBlocks = 16384;  ///< shared hot working set
        double hotProb = 0.995;
        double writeFraction = 0.02;
    };

    ReadMostlyRegion(const Params &params, NodeId num_nodes,
                     const Config &cfg);

    RegionRef gen(NodeId p, Rng &rng) override;

  private:
    Config cfg_;
    WorkingSetSampler pick_;
    RankScatterer scatter_;
};

/**
 * Migratory data: records accessed read-then-write under a lock
 * (database rows, kernel objects). Ownership migrates between
 * processors; with `pairAffinity`, items are mostly bounced between a
 * fixed pair, which the Owner predictor captures well (Section 3.3).
 */
class MigratoryRegion : public Region
{
  public:
    struct Config {
        std::uint32_t itemBlocks = 2;  ///< blocks per record
        std::uint32_t burstLen = 4;    ///< accesses per lock hold
        double theta = 0.6;            ///< item popularity skew
        double pairAffinity = 0.0;     ///< fraction of picks from the
                                       ///< processor pair's partition
    };

    MigratoryRegion(const Params &params, NodeId num_nodes,
                    const Config &cfg);

    RegionRef gen(NodeId p, Rng &rng) override;

    void ckptSave(ckpt::Writer &w) const override { w.podVec(procs_); }

    void
    ckptLoad(ckpt::Reader &r) override
    {
        auto v = r.podVec<ProcState>();
        dsp_assert(v.size() == procs_.size(),
                   "region proc-state count mismatch");
        procs_ = std::move(v);
    }

  private:
    Config cfg_;
    std::uint64_t items_;
    ZipfSampler itemPick_;

    struct ProcState {
        std::uint64_t item = 0;
        std::uint32_t opsLeft = 0;
        std::uint32_t pad = 0;  ///< checkpoint bytes: no unset padding
    };
    static_assert(std::has_unique_object_representations_v<ProcState>);
    std::vector<ProcState> procs_;
};

/**
 * Producer-consumer buffers (network packets, pipeline stages, Ocean's
 * column-blocked boundary rows). Each processor alternates between
 * writing a buffer it owns and reading a buffer owned by a nearby
 * processor. Sequential whole-buffer passes give the strong macroblock
 * spatial locality of Figure 4(b).
 */
class ProducerConsumerRegion : public Region
{
  public:
    struct Config {
        std::uint32_t bufferBlocks = 16;  ///< 16 blocks = 1 KB buffer
        std::uint32_t neighborDist = 1;   ///< consume from p +/- dist
        double consumeFraction = 0.5;     ///< fraction of passes reading
        /** References per block within a pass (sub-block reuse hits
         *  the L1; only the first touch reaches the L2). */
        std::uint32_t refsPerBlock = 8;
    };

    ProducerConsumerRegion(const Params &params, NodeId num_nodes,
                           const Config &cfg);

    RegionRef gen(NodeId p, Rng &rng) override;

    void ckptSave(ckpt::Writer &w) const override { w.podVec(procs_); }

    void
    ckptLoad(ckpt::Reader &r) override
    {
        auto v = r.podVec<ProcState>();
        dsp_assert(v.size() == procs_.size(),
                   "region proc-state count mismatch");
        procs_ = std::move(v);
    }

  private:
    Config cfg_;
    std::uint64_t buffers_;
    std::uint64_t buffersPerProc_;

    struct ProcState {
        bool consuming = false;
        std::uint8_t pad[7] = {};  ///< checkpoint bytes: no unset padding
        std::uint64_t buffer = 0;
        std::uint32_t cursor = 0;
        std::uint32_t refsLeftInBlock = 0;
    };
    static_assert(std::has_unique_object_representations_v<ProcState>);
    std::vector<ProcState> procs_;
};

/**
 * Group-shared data: a subset of processors (a logical partition,
 * e.g., warehouses in SPECjbb or a database partition) shares each
 * slice read-write. The Group predictor targets exactly this pattern.
 */
class GroupRegion : public Region
{
  public:
    struct Config {
        NodeId groupSize = 4;
        std::uint64_t hotBlocks = 16384;  ///< per-group hot working set
        double hotProb = 0.99;
        double writeFraction = 0.3;
    };

    GroupRegion(const Params &params, NodeId num_nodes,
                const Config &cfg);

    RegionRef gen(NodeId p, Rng &rng) override;

  private:
    Config cfg_;
    NodeId groups_;
    std::uint64_t sliceBlocks_;
    std::unique_ptr<WorkingSetSampler> slicePick_;
    RankScatterer scatter_{1};
};

/**
 * Widely-shared hot blocks: locks, allocator metadata, global
 * counters. Small, extremely skewed, with a high write fraction --
 * the classic broadcast-friendly traffic that makes snooping fast.
 */
class HotRegion : public Region
{
  public:
    struct Config {
        double theta = 0.9;
        double writeFraction = 0.5;
    };

    HotRegion(const Params &params, NodeId num_nodes,
              const Config &cfg);

    RegionRef gen(NodeId p, Rng &rng) override;

  private:
    Config cfg_;
    ZipfSampler pick_;
    RankScatterer scatter_;
};

} // namespace dsp

#endif // DSP_WORKLOAD_REGION_HH
