/**
 * @file
 * Per-node cache hierarchy: split-L1-style filter plus a unified MOSI L2.
 *
 * The L2 is the coherence point (as in the paper: predictors and
 * controllers sit beside the L2); the L1 is a simple inclusive
 * valid/writable filter in front of it. Geometry defaults follow
 * Table 4: 128 kB 4-way L1, 4 MB 4-way unified L2, 64 B blocks.
 *
 * Accesses run as a staged probe -> commit pipeline (see
 * docs/access_pipeline.md):
 *
 *  - probeAccess() walks nothing it does not need and mutates nothing:
 *    it classifies the access (L0 repeat hit, L1 hit, L2 hit, upgrade,
 *    miss) and latches the set-walk handles the commit will consume;
 *  - commitAccess() applies every effect -- counters, LRU touches, the
 *    L1 fill on an L2 hit, and (for misses) the FillHandle the caller
 *    carries to fill() after the coherence round-trip.
 *
 * In front of the L1 walk sits a small direct-mapped L0 block-result
 * filter: recently resolved block -> (L1 line, writable) results. A
 * repeat hit through the L0 touches zero simulated-L2 words and at
 * most one L1 word; when the block is provably still the globally
 * most-recently-used L1 line (its recorded stamp equals the L1 LRU
 * clock in the same renormalization epoch), even that touch is
 * absorbed and the access reads zero packed-array words. The L0 is a
 * pure accelerator: every figure statistic is bit-identical with it
 * on or off (CacheParams::l0Filter), because it only short-circuits
 * walks whose side effects are nil or exactly reproduced.
 *
 * L0 staleness discipline: NodeCaches keeps the L0 coherent for every
 * mutation it performs itself (L1 conflict evictions inside commit,
 * L1 victims of an L2 fill, inclusion erases). External coherence
 * actions -- invalidate() and downgrade() -- deliberately do NOT probe
 * the L0; the system layer (CacheController / System) is the single
 * fan-in for them and calls l0Invalidate() at each such call site, so
 * the correctness argument is auditable at those sites. Debug builds
 * verify the discipline on every L0 hit (lineHolds cross-check).
 */

#ifndef DSP_MEM_NODE_CACHES_HH
#define DSP_MEM_NODE_CACHES_HH

#include <array>
#include <cstdint>

#include "mem/mosi.hh"
#include "mem/packed_cache_array.hh"
#include "mem/types.hh"

/**
 * The staged-access stages run once per simulated memory reference --
 * the hottest call in the simulator -- and every caller pairs them
 * back to back. The plain `inline` hint loses to the inliner's size
 * cutoff (measured: GCC leaves both out of line even under LTO, which
 * materializes the ~200-byte StagedAccess through memory twice per
 * access); forcing it keeps the staged state in registers.
 */
#if defined(__GNUC__) || defined(__clang__)
#define DSP_HOT_INLINE inline __attribute__((always_inline))
#else
#define DSP_HOT_INLINE inline
#endif

namespace dsp {

/** Geometry of one cache level. */
struct CacheGeometry {
    std::uint64_t size_bytes;
    std::size_t ways;

    /** Number of sets for 64-byte blocks. */
    std::size_t
    sets() const
    {
        return static_cast<std::size_t>(size_bytes / blockBytes / ways);
    }
};

/** Cache configuration for one node (Table 4 defaults). */
struct CacheParams {
    CacheGeometry l1{128 * 1024, 4};
    CacheGeometry l2{4 * 1024 * 1024, 4};

    /**
     * Consult the per-node L0 block-result filter before the L1 walk.
     * Pure accelerator knob: statistics are bit-identical either way
     * (pinned by tests); off exists for equivalence runs and triage.
     */
    bool l0Filter = true;
};

/** What, if anything, a memory access needs from the coherence layer. */
enum class CoherenceNeed : std::uint8_t {
    None,          ///< satisfied locally (L1 or L2 hit with permission)
    GetShared,     ///< L2 miss on a read
    GetExclusive,  ///< L2 miss on a write, or an upgrade from S/O
};

/**
 * The two cache levels of one node, with inclusion maintained
 * (L1 contents are always a subset of L2 contents).
 *
 * Both levels live in PackedCacheArray planes: one 64-bit word per
 * line (stamp + tag + permission bits), so every probe, hit, and fill
 * touches exactly one host cache line per level. The simulated L2s
 * dwarf the host's caches, making those line touches the dominant
 * cost of the whole access+fill path; the L0 filter exists to keep
 * repeat L1 hits -- the most common access by far -- off even the L1
 * set run.
 */
class NodeCaches
{
  private:
    /** L1 payload: one writable bit. */
    using L1Array = PackedCacheArray<1>;
    /** L2 payload: the 2-bit MOSI state. */
    using L2Array = PackedCacheArray<2>;

  public:
    explicit NodeCaches(const CacheParams &params = CacheParams{});

    /**
     * Set-walk handles from an access, consumed by fill() after the
     * coherence round-trip so the install re-walks nothing. Snapshot
     * -guarded: an intervening invalidate / downgrade / eviction /
     * LRU touch of the same set just costs one re-walk.
     */
    struct FillHandle {
        L1Array::Handle l1;
        L2Array::Handle l2;
    };

    /** Outcome of an access. */
    struct AccessResult {
        CoherenceNeed need = CoherenceNeed::None;
        bool l1Hit = false;
        bool l2Hit = false;          ///< tag present with any permission
        MosiState l2State = MosiState::Invalid;
    };

    /**
     * One access in flight between its probe and commit stages. The
     * `result` field is valid right after probeAccess(); everything
     * else is stage plumbing. After commitAccess(), fillHandle() is
     * the miss's walk-free install cursor when `result.need` is not
     * None -- carried by the caller to fill(), which removes any need
     * for a mutable "last miss" latch.
     */
    struct StagedAccess {
        AccessResult result;

        /** Which commit path this access takes. */
        enum class Path : std::uint8_t {
            L0Absorbed,  ///< repeat hit, LRU effect provably absorbed
            L0Refresh,   ///< repeat hit, one L1 word touch
            L1Hit,       ///< L1 walk hit with permission
            L2Hit,       ///< L2 hit with permission (L1 fill follows)
            Upgrade,     ///< L2 hit without write permission
            Miss,        ///< L2 miss
        };

        /** Sentinel: the L1 scan found no line for this block. */
        static constexpr std::uint32_t noLine = 0xffffffffu;

        BlockId block = 0;
        bool write = false;
        Path path = Path::Miss;
        /** The L1 scan's cursor: the matched line (or noLine). The
         *  hit path needs a touch cursor, not a snapshot handle, so
         *  it pays for neither. */
        std::uint32_t l1Line = noLine;
        bool l1Writable = false;
        /** Upgrade/Miss paths: the walks that double as the fill
         *  cursor pair (l2h from the probe stage, l1h latched by the
         *  commit -- the L1 install cursor must postdate the commit's
         *  own L1 touch). */
        L1Array::Handle l1h;
        L2Array::Handle l2h;

        /** The miss's install cursors (valid iff result.need is not
         *  None after commit). */
        FillHandle
        fillHandle() const
        {
            return FillHandle{l1h, l2h};
        }
    };

    /**
     * Probe stage: classify a load (is_write=false) or store
     * (is_write=true) without any side effect (no counter, no LRU
     * touch, no L0 update). The returned result already says whether
     * the coherence layer is needed; commitAccess() must be called
     * exactly once to apply the access's effects.
     */
    DSP_HOT_INLINE StagedAccess probeAccess(Addr addr,
                                            bool is_write) const;

    /**
     * Commit stage: apply the probed access's effects -- statistics,
     * LRU touches, the L1 fill on an L2 hit, L0 record/refresh, and
     * (for misses and upgrades) latch the FillHandle into sa.fill.
     */
    DSP_HOT_INLINE void commitAccess(StagedAccess &sa);

    /**
     * Convenience probe+commit. If the result's `need` is not None,
     * the caller must consult the coherence layer and then call
     * fill() with the granted state. Prefer the staged API where the
     * FillHandle is needed: it travels in the StagedAccess instead of
     * the mutable latch behind lastMissHandle().
     */
    AccessResult access(Addr addr, bool is_write);

    /**
     * The set-walk handles latched by the most recent access() whose
     * `need` was not None. Kept for convenience callers (tests,
     * single-shot tools); the staged API supersedes it on the system
     * hot path because a second access would silently overwrite this
     * latch.
     */
    const FillHandle &lastMissHandle() const { return lastMiss_; }

    /** Outcome of NodeCaches::fill(): the L2 victim, if any. */
    struct FillResult {
        bool evicted = false;
        BlockId victim = 0;
        MosiState victimState = MosiState::Invalid;
    };

    /**
     * Install (or upgrade) a block after a coherence grant. With the
     * miss's FillHandle, the install is walk-free (the handles carry
     * the set walks the probe stage already did); without one it
     * degrades to plain inserts. Records the filled block in the L0,
     * so an immediate replay of the blocked access (MSHR waiters, ROB
     * replays) resolves without re-walking L1 or L2.
     */
    FillResult fill(Addr addr, MosiState new_state,
                    FillHandle *handle = nullptr);

    /**
     * External GETX: drop the block entirely. Returns prior state.
     * Does NOT touch the L0: the caller (the system layer's single
     * coherence fan-in) must pair it with l0Invalidate().
     */
    MosiState invalidate(BlockId block);

    /**
     * External GETS to a block this node owns: M -> O (stay owner,
     * lose write permission). O/S unchanged. Returns new state.
     * Does NOT touch the L0 (see invalidate()).
     */
    MosiState downgrade(BlockId block);

    /**
     * Drop the L0 entry for `block`, if any. The system layer calls
     * this at every coherence-action call site that can stale an L0
     * result (remote invalidation, downgrade, writeback races); see
     * docs/access_pipeline.md for the audited call-site list. Idempotent
     * and cheap (one direct-mapped slot compare).
     */
    void
    l0Invalidate(BlockId block)
    {
        L0Entry &entry = l0_[l0Slot(block)];
        if (entry.valid && entry.block == block)
            entry.valid = false;
    }

    /** Current L2 state of a block (Invalid if absent). */
    MosiState stateOf(BlockId block) const;

    /** Counters for sanity checks and reporting. */
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t l1Hits() const { return l1Hits_; }
    std::uint64_t l2Hits() const { return l2Hits_; }
    std::uint64_t l2Misses() const { return l2Misses_; }
    std::uint64_t upgrades() const { return upgrades_; }
    std::uint64_t writebacks() const { return writebacks_; }

    /** Accesses resolved by the L0 filter (subset of l1Hits). */
    std::uint64_t l0Hits() const { return l0Hits_; }
    /** L0 hits whose LRU touch was provably absorbed: the access read
     *  and wrote zero packed-array words. */
    std::uint64_t l0Absorbed() const { return l0Absorbed_; }

    /** Debug-build tag-walk counters (0 in release); tests use these
     *  to pin the "fill performs zero extra walks" invariant. */
    static constexpr bool walkCounting = L2Array::walkCounting;
    std::uint64_t l1TagWalks() const { return l1_.walks(); }
    std::uint64_t l2TagWalks() const { return l2_.walks(); }
    std::uint64_t handleRewalks() const
    {
        return l1_.rewalks() + l2_.rewalks();
    }

    /** Per-stage walk attribution (debug builds; 0 in release). */
    std::uint64_t probeStageWalks() const { return probeWalks_; }
    std::uint64_t commitStageWalks() const { return commitWalks_; }
    std::uint64_t fillStageWalks() const { return fillWalks_; }

    /** Test hooks for the L0 renormalization-epoch guard. */
    std::uint32_t debugL1Clock() const { return l1_.useClock(); }
    void debugAdvanceL1Clock(std::uint32_t v) { l1_.debugSetUseClock(v); }

    /**
     * Checkpoint both packed planes, the L0 filter, and all counters.
     * Not captured: lastMiss_, the convenience-API latch -- the system
     * hot path carries its fill cursors in the StagedAccess/MSHR, and
     * a stale handle only ever costs a re-walk, never correctness.
     */
    template <typename W>
    void
    ckptSave(W &w) const
    {
        l1_.ckptSave(w);
        l2_.ckptSave(w);
        for (const L0Entry &entry : l0_)
            w.pod(entry);
        w.u64(accesses_);
        w.u64(l1Hits_);
        w.u64(l2Hits_);
        w.u64(l2Misses_);
        w.u64(upgrades_);
        w.u64(writebacks_);
        w.u64(l0Hits_);
        w.u64(l0Absorbed_);
        w.u64(probeWalks_);
        w.u64(commitWalks_);
        w.u64(fillWalks_);
    }

    template <typename R>
    void
    ckptLoad(R &r)
    {
        l1_.ckptLoad(r);
        l2_.ckptLoad(r);
        for (L0Entry &entry : l0_)
            entry = r.template pod<L0Entry>();
        accesses_ = r.u64();
        l1Hits_ = r.u64();
        l2Hits_ = r.u64();
        l2Misses_ = r.u64();
        upgrades_ = r.u64();
        writebacks_ = r.u64();
        l0Hits_ = r.u64();
        l0Absorbed_ = r.u64();
        probeWalks_ = r.u64();
        commitWalks_ = r.u64();
        fillWalks_ = r.u64();
    }

  private:
    /** One L0 filter entry: a resolved block -> L1-line result. */
    struct L0Entry {
        BlockId block = 0;
        std::uint32_t line = 0;   ///< L1 line index of the block
        std::uint32_t stamp = 0;  ///< L1 stamp written when recorded
        std::uint32_t epoch = 0;  ///< L1 renorm epoch at record time
        bool writable = false;
        bool valid = false;
    };

    /** Direct-mapped L0 size: repeat hits are overwhelmingly
     *  back-to-back same-block references (sub-block reuse), so a
     *  small power-of-two array covers them; 64 entries = 1.5 kB. */
    static constexpr std::size_t l0Size = 64;

    static std::size_t
    l0Slot(BlockId block)
    {
        return static_cast<std::size_t>(block) & (l0Size - 1);
    }

    static std::uint32_t
    packState(MosiState state)
    {
        return static_cast<std::uint32_t>(state);
    }

    static MosiState
    unpackState(std::uint32_t payload)
    {
        return static_cast<MosiState>(payload);
    }

    /** Record a block now resident in the L1 at `line`. The caller
     *  just touched/filled that line, so the L1 clock IS its stamp. */
    void
    l0Record(BlockId block, bool writable, std::size_t line)
    {
        if (!l0Enabled_)
            return;
        L0Entry &entry = l0_[l0Slot(block)];
        entry.block = block;
        entry.line = static_cast<std::uint32_t>(line);
        entry.stamp = l1_.useClock();
        entry.epoch = l1_.renormEpochs();
        entry.writable = writable;
        entry.valid = true;
    }

    L1Array l1_;
    L2Array l2_;
    bool l0Enabled_;
    std::array<L0Entry, l0Size> l0_{};
    FillHandle lastMiss_;

    std::uint64_t accesses_ = 0;
    std::uint64_t l1Hits_ = 0;
    std::uint64_t l2Hits_ = 0;
    std::uint64_t l2Misses_ = 0;
    std::uint64_t upgrades_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t l0Hits_ = 0;
    std::uint64_t l0Absorbed_ = 0;

    /** Per-stage walk attribution (mutable: the probe stage is
     *  logically const but still counts its walks in debug builds). */
    mutable std::uint64_t probeWalks_ = 0;
    std::uint64_t commitWalks_ = 0;
    std::uint64_t fillWalks_ = 0;
};

// The probe and commit stages are header-inline: they run once per
// simulated memory reference (the hottest path in the simulator), and
// every caller pairs them back to back -- inlining lets the compiler
// keep the StagedAccess in registers and fuse the stages in every
// build, not just under LTO.

inline NodeCaches::StagedAccess
NodeCaches::probeAccess(Addr addr, bool is_write) const
{
    StagedAccess sa;
    sa.block = blockOf(addr);
    sa.write = is_write;

    // Stage 0: the block-result filter. A valid entry proves the
    // block is L1-resident at `line` with the recorded permission --
    // the system layer's invalidation fan-in plus this class's own
    // eviction bookkeeping keep that proof current (debug builds
    // cross-check it against the live L1 word on every hit).
    if (l0Enabled_) {
        const L0Entry &entry = l0_[l0Slot(sa.block)];
        if (entry.valid && entry.block == sa.block &&
            (!is_write || entry.writable)) {
            dsp_assert(l1_.lineHolds(entry.line, sa.block),
                       "stale L0 entry: a coherence path is missing "
                       "its l0Invalidate() hook");
            dsp_assert((L1Array::payloadOf(l1_.wordAt(entry.line)) !=
                        0) == entry.writable,
                       "stale L0 writable bit: a downgrade path is "
                       "missing its l0Invalidate() hook");
            sa.result.l1Hit = true;
            // LRU absorption: stamp == clock (same epoch) proves this
            // line is the globally most-recently-used L1 line, so a
            // re-touch cannot change any set's LRU order and the
            // commit may skip it entirely.
            sa.path = entry.stamp == l1_.useClock() &&
                              entry.epoch == l1_.renormEpochs()
                          ? StagedAccess::Path::L0Absorbed
                          : StagedAccess::Path::L0Refresh;
            return sa;
        }
    }

    // Stage 1: a position-only L1 scan -- the hit path (the common
    // case by far) needs a touch cursor, not a snapshot handle.
    std::size_t line = l1_.scanLine(sa.block);
    if (line != L1Array::lineNpos) {
        sa.l1Line = static_cast<std::uint32_t>(line);
        sa.l1Writable = L1Array::payloadOf(l1_.wordAt(line)) != 0;
        if (!is_write || sa.l1Writable) {
            sa.path = StagedAccess::Path::L1Hit;
            sa.result.l1Hit = true;
            if constexpr (walkCounting)
                probeWalks_ += 1;
            return sa;
        }
        // A write to a read-only L1 line falls through to the L2,
        // which knows the real MOSI state; commit will still apply
        // the L1 touch the scan's tag match implies.
    }

    // Stage 2: one L2 walk; the handle is this access's touch cursor
    // on a hit and the eventual fill()'s install cursor otherwise.
    sa.l2h = l2_.probe(sa.block);
    if (sa.l2h.hit()) {
        MosiState state = unpackState(l2_.at(sa.l2h));
        sa.result.l2Hit = true;
        sa.result.l2State = state;
        if (!is_write || canWrite(state)) {
            sa.path = StagedAccess::Path::L2Hit;
        } else {
            // Write to S or O: coherence upgrade required. The line
            // stays put; fill() will promote it in place.
            sa.path = StagedAccess::Path::Upgrade;
            sa.result.need = CoherenceNeed::GetExclusive;
        }
    } else {
        sa.path = StagedAccess::Path::Miss;
        sa.result.need = is_write ? CoherenceNeed::GetExclusive
                                  : CoherenceNeed::GetShared;
    }
    if constexpr (walkCounting)
        probeWalks_ += 2;  // the L1 scan plus the L2 probe
    return sa;
}

inline void
NodeCaches::commitAccess(StagedAccess &sa)
{
    ++accesses_;

    switch (sa.path) {
      case StagedAccess::Path::L0Absorbed:
        // Repeat hit on the globally-MRU L1 line: zero packed-array
        // words read or written. Skipping the touch leaves the LRU
        // *order* of every set unchanged (the line already holds the
        // maximal stamp), so no statistic can diverge.
        ++l1Hits_;
        ++l0Hits_;
        ++l0Absorbed_;
        break;

      case StagedAccess::Path::L0Refresh: {
        // Repeat hit, but other lines were touched since: refresh the
        // line's stamp exactly as a walk hit would, through the L0's
        // line cursor -- one word, zero walks.
        ++l1Hits_;
        ++l0Hits_;
        L0Entry &entry = l0_[l0Slot(sa.block)];
        l1_.touchLine(entry.line);
        entry.stamp = l1_.useClock();
        entry.epoch = l1_.renormEpochs();
        break;
      }

      case StagedAccess::Path::L1Hit:
        ++l1Hits_;
        l1_.touchLine(sa.l1Line);
        l0Record(sa.block, sa.l1Writable, sa.l1Line);
        break;

      case StagedAccess::Path::L2Hit: {
        ++l2Hits_;
        if (sa.l1Line != StagedAccess::noLine)
            l1_.touchLine(sa.l1Line);  // the scan's tag-match touch
        l2_.touchAt(sa.l2h);
        std::uint32_t writable =
            canWrite(sa.result.l2State) ? 1 : 0;
        std::optional<PackedEviction> evicted;
        std::size_t line = l1_.insertLine(sa.block, writable, evicted);
        if (evicted)
            l0Invalidate(evicted->key);  // silent L1 conflict victim
        l0Record(sa.block, writable != 0, line);
        if constexpr (walkCounting)
            commitWalks_ += 1;  // the L1 install
        break;
      }

      case StagedAccess::Path::Upgrade:
        if (sa.l1Line != StagedAccess::noLine)
            l1_.touchLine(sa.l1Line);  // the scan's tag-match touch
        l2_.touchAt(sa.l2h);
        ++upgrades_;
        ++l2Misses_;
        // Latch the L1 install cursor now -- after this commit's own
        // L1 touch, so the snapshot is born fresh.
        sa.l1h = l1_.probe(sa.block);
        if constexpr (walkCounting)
            commitWalks_ += 1;
        break;

      case StagedAccess::Path::Miss:
        ++l2Misses_;
        sa.l1h = l1_.probe(sa.block);
        if constexpr (walkCounting)
            commitWalks_ += 1;
        break;
    }
}

inline NodeCaches::AccessResult
NodeCaches::access(Addr addr, bool is_write)
{
    StagedAccess sa = probeAccess(addr, is_write);
    commitAccess(sa);
    if (sa.result.need != CoherenceNeed::None)
        lastMiss_ = sa.fillHandle();
    return sa.result;
}

} // namespace dsp

#endif // DSP_MEM_NODE_CACHES_HH
