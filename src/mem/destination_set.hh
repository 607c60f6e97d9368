/**
 * @file
 * DestinationSet: the set of nodes that receive a coherence request.
 *
 * This is the central abstraction of the paper (the "multicast mask").
 * Represented as a fixed-size array of 64-bit words covering maxNodes
 * bits (256 nodes -> 4 words, 32 bytes), with SWAR popcount/iterate.
 * Systems up to 64 nodes live entirely in word 0, which keeps the
 * legacy single-word mask()/fromMask() surface (traces, predictor
 * tables, tests) valid for every machine the paper evaluates plus the
 * 64-node scale-up.
 */

#ifndef DSP_MEM_DESTINATION_SET_HH
#define DSP_MEM_DESTINATION_SET_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace dsp {

/** A set of node identifiers, value semantics, O(words) set algebra. */
class DestinationSet
{
  public:
    /** Number of 64-bit words backing the set. */
    static constexpr unsigned wordCount = maxNodes / 64;
    static_assert(maxNodes % 64 == 0,
                  "maxNodes must be a multiple of the word width");

    using Words = std::array<std::uint64_t, wordCount>;

    /** Nodes the single-word mask() surface covers: the ceiling of
     *  everything that persists one mask word (trace records, the
     *  Sticky-Spatial table). */
    static constexpr NodeId maskNodes = 64;

    constexpr DestinationSet() = default;

    /**
     * Construct from a raw 64-bit mask (bit i <=> node i). Only spans
     * nodes 0..63; word-array sets beyond that are built with add() or
     * fromWords().
     */
    static constexpr DestinationSet
    fromMask(std::uint64_t mask)
    {
        DestinationSet s;
        s.words_[0] = mask;
        return s;
    }

    /** Construct from a full word array (word w bit b <=> node 64w+b). */
    static constexpr DestinationSet
    fromWords(const Words &words)
    {
        DestinationSet s;
        s.words_ = words;
        return s;
    }

    /** The set containing every node in an n-node system. */
    static DestinationSet
    all(NodeId n)
    {
        dsp_assert(n > 0 && n <= maxNodes, "bad node count %u", n);
        DestinationSet s;
        for (unsigned w = 0; w < wordCount && n > 0; ++w) {
            if (n >= 64) {
                s.words_[w] = ~std::uint64_t{0};
                n -= 64;
            } else {
                s.words_[w] = (std::uint64_t{1} << n) - 1;
                n = 0;
            }
        }
        return s;
    }

    /** The singleton set {node}. */
    static DestinationSet
    of(NodeId node)
    {
        DestinationSet s;
        s.add(node);
        return s;
    }

    /**
     * Low-word accessor: the raw mask over nodes 0..63. Callers that
     * persist this single word (trace records, predictor training
     * tables) only handle <= 64-node sets; assert nothing is lost.
     */
    std::uint64_t
    mask() const
    {
        for (unsigned w = 1; w < wordCount; ++w)
            dsp_assert(words_[w] == 0,
                       "mask() on a set with nodes >= %u", maskNodes);
        return words_[0];
    }

    /** Full word array, for callers sized off maxNodes. */
    constexpr const Words &words() const { return words_; }

    /** Add a node to the set. */
    void
    add(NodeId node)
    {
        dsp_assert(node < maxNodes, "node %u out of range", node);
        words_[node >> 6] |= std::uint64_t{1} << (node & 63);
    }

    /** Remove a node from the set. */
    void
    remove(NodeId node)
    {
        dsp_assert(node < maxNodes, "node %u out of range", node);
        words_[node >> 6] &= ~(std::uint64_t{1} << (node & 63));
    }

    /** Membership test. */
    constexpr bool
    contains(NodeId node) const
    {
        return node < maxNodes &&
               (words_[node >> 6] >> (node & 63)) & 1;
    }

    /** True if every member of `other` is also a member of this set. */
    constexpr bool
    containsAll(const DestinationSet &other) const
    {
        std::uint64_t leak = 0;
        for (unsigned w = 0; w < wordCount; ++w)
            leak |= other.words_[w] & ~words_[w];
        return leak == 0;
    }

    /** Number of members. */
    constexpr unsigned
    count() const
    {
        unsigned n = 0;
        for (std::uint64_t w : words_)
            n += static_cast<unsigned>(std::popcount(w));
        return n;
    }

    /** True if the set is empty. */
    constexpr bool
    empty() const
    {
        std::uint64_t any = 0;
        for (std::uint64_t w : words_)
            any |= w;
        return any == 0;
    }

    /** Set union / difference / intersection. */
    constexpr DestinationSet
    operator|(const DestinationSet &o) const
    {
        DestinationSet s;
        for (unsigned w = 0; w < wordCount; ++w)
            s.words_[w] = words_[w] | o.words_[w];
        return s;
    }

    constexpr DestinationSet
    operator&(const DestinationSet &o) const
    {
        DestinationSet s;
        for (unsigned w = 0; w < wordCount; ++w)
            s.words_[w] = words_[w] & o.words_[w];
        return s;
    }

    /** Members of this set that are not in `o`. */
    constexpr DestinationSet
    minus(const DestinationSet &o) const
    {
        DestinationSet s;
        for (unsigned w = 0; w < wordCount; ++w)
            s.words_[w] = words_[w] & ~o.words_[w];
        return s;
    }

    DestinationSet &
    operator|=(const DestinationSet &o)
    {
        for (unsigned w = 0; w < wordCount; ++w)
            words_[w] |= o.words_[w];
        return *this;
    }

    constexpr bool
    operator==(const DestinationSet &) const = default;

    /** Invoke fn(NodeId) for each member, ascending. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned w = 0; w < wordCount; ++w) {
            std::uint64_t m = words_[w];
            while (m) {
                NodeId n = static_cast<NodeId>(
                    (w << 6) + std::countr_zero(m));
                fn(n);
                m &= m - 1;
            }
        }
    }

    /** Smallest member greater than `after`, or maxNodes if none (a
     *  cursor-style forEach: fused hop chains resume a walk here). */
    constexpr NodeId
    nextAfter(NodeId after) const
    {
        const unsigned from = after + 1;
        unsigned w = from >> 6;
        if (w >= wordCount)
            return maxNodes;
        std::uint64_t m = words_[w] & (~std::uint64_t{0} << (from & 63));
        while (m == 0) {
            if (++w == wordCount)
                return maxNodes;
            m = words_[w];
        }
        return static_cast<NodeId>((w << 6) + std::countr_zero(m));
    }

    /** Render like "{0,3,7}" for debugging. */
    std::string
    toString() const
    {
        std::string out = "{";
        bool first = true;
        forEach([&](NodeId n) {
            if (!first)
                out += ",";
            out += std::to_string(n);
            first = false;
        });
        out += "}";
        return out;
    }

  private:
    Words words_{};
};

} // namespace dsp

#endif // DSP_MEM_DESTINATION_SET_HH
