/**
 * @file
 * Global MOSI sharing state: for every block, who owns it (a cache or
 * memory) and which caches hold read-only copies.
 *
 * This is the functional heart of all three protocols. In a system with
 * a totally-ordered interconnect, coherence transactions are logically
 * serialized at the ordering point; this class applies that serialized
 * order. Protocols differ only in *who gets told* about each request
 * (the destination set) and hence in latency and traffic -- never in the
 * resulting sharing state.
 */

#ifndef DSP_COHERENCE_SHARING_TRACKER_HH
#define DSP_COHERENCE_SHARING_TRACKER_HH

#include <cstdint>

#include "mem/destination_set.hh"
#include "mem/mosi.hh"
#include "mem/types.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace dsp {

/**
 * Tracks owner + sharers per block and serializes MOSI transactions.
 *
 * Owner semantics: `invalidNode` means memory (at the block's home node)
 * owns the block; otherwise the named cache is in M or O.
 */
class SharingTracker
{
  public:
    explicit SharingTracker(NodeId num_nodes);

    /** Result of serializing one coherence request. */
    struct Transaction {
        /**
         * Caches (other than the requester) that had to observe the
         * request for it to succeed: the owner for GETS; the owner and
         * all sharers for GETX. This is exactly the set whose size
         * Figure 2 histograms, and whose non-emptiness defines a
         * directory-protocol indirection (Table 2, rightmost column).
         */
        DestinationSet required;

        /**
         * Who supplies the data: a cache id, `invalidNode` for memory,
         * or the requester itself (upgrade: requester already holds
         * valid data, no data message needed).
         */
        NodeId responder = invalidNode;

        /** True if another cache supplies the data (3-hop in a
         *  directory protocol; a "cache-to-cache miss"). */
        bool cacheToCache = false;

        /** State the requester's L2 should install. */
        MosiState grantedState = MosiState::Invalid;
    };

    /**
     * Peek: what would this request require, without changing state?
     * Used by directories to build improved destination sets.
     */
    Transaction inspect(BlockId block, NodeId requester,
                        RequestType type) const;

    /**
     * Serialize a request: compute the transaction and update global
     * state (GETS: requester becomes sharer, M owner conceptually
     * downgrades to O; GETX: requester becomes sole M owner, sharers
     * are invalidated).
     */
    Transaction apply(BlockId block, NodeId requester, RequestType type,
                      Tick now = 0);

    /**
     * Snooping/multicast ordering point: serialize the request only if
     * `dests` covers the required observers (Section 4.1), with a
     * single state lookup. Returns the transaction and sets
     * `sufficient`; when insufficient, no state changes and the
     * transaction reflects what *would* be required.
     */
    Transaction applyIfSufficient(BlockId block, NodeId requester,
                                  RequestType type,
                                  const DestinationSet &dests,
                                  bool &sufficient, Tick now = 0);

    /**
     * Tick of the last applied (state-changing) ordering for `block`;
     * 0 if none since tracking began. Lets a delayed eviction notice
     * detect that a later ordering superseded it.
     */
    Tick lastOrderedAt(BlockId block) const;

    /** A sharer dropped its S copy (clean eviction). */
    void evictShared(BlockId block, NodeId node);

    /** The owner wrote the block back; memory becomes owner. */
    void evictOwned(BlockId block, NodeId node);

    /** Current owner (invalidNode = memory). */
    NodeId ownerOf(BlockId block) const;

    /** Current sharers (read-only copy holders, owner not included). */
    DestinationSet sharersOf(BlockId block) const;

    /** All caches holding the block: sharers plus cache owner. */
    DestinationSet holdersOf(BlockId block) const;

    /** Number of nodes in the system. */
    NodeId numNodes() const { return numNodes_; }

    /** Number of blocks with any non-default state. */
    std::size_t trackedBlocks() const { return blocks_.size(); }

    /**
     * Pre-size the block table for `blocks` entries (e.g. the
     * workload's whole footprint), so the hot ordering-point path
     * never pays an incremental rehash.
     */
    void reserve(std::size_t blocks) { blocks_.reserve(blocks); }

    /**
     * Checkpoint the whole block table. BlockState is trivially
     * copyable, so the FlatMap raw-layout path captures it verbatim
     * (including probe/iteration order).
     */
    template <typename W>
    void
    ckptSave(W &w) const
    {
        w.u64(numNodes_);
        blocks_.ckptSave(w);
    }

    template <typename R>
    void
    ckptLoad(R &r)
    {
        std::uint64_t nodes = r.u64();
        dsp_assert(nodes == numNodes_,
                   "checkpoint sharing tracker built for %llu nodes, "
                   "this machine has %u",
                   static_cast<unsigned long long>(nodes), numNodes_);
        blocks_.ckptLoad(r);
    }

  private:
    struct BlockState {
        NodeId owner = invalidNode;  ///< invalidNode = memory owns
        DestinationSet sharers;      ///< S-state holders
        /** Serialization tick of the last applied request (0 for
         *  functional/trace use, which passes no clock). */
        Tick lastOrder = 0;
    };

    NodeId numNodes_;
    FlatMap<BlockId, BlockState> blocks_;

    Transaction
    makeTransaction(const BlockState &st, NodeId requester,
                    RequestType type) const;

    /** Mutate `st` as the serialized request dictates. */
    static void applyTo(BlockState &st, NodeId requester,
                        RequestType type, Tick now);
};

} // namespace dsp

#endif // DSP_COHERENCE_SHARING_TRACKER_HH
