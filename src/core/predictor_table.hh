/**
 * @file
 * Backing store for predictor entries: a tagged set-associative table
 * with LRU replacement (the paper's finite predictors) or an unbounded
 * hash map (the paper's "unbounded" sensitivity points, Figure 6c).
 */

#ifndef DSP_CORE_PREDICTOR_TABLE_HH
#define DSP_CORE_PREDICTOR_TABLE_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/logging.hh"

namespace dsp {

/**
 * key -> Entry store. entries == 0 selects the unbounded variant.
 *
 * find() never allocates: per Section 3.1 predictors return the
 * minimal destination set on a table miss, and allocation is filtered
 * (only blocks whose minimal set proved insufficient get entries).
 */
template <typename Entry>
class PredictorTable
{
  public:
    PredictorTable(std::size_t entries, std::size_t ways)
    {
        if (entries > 0) {
            if (ways == 0 || ways > entries)
                ways = entries;
            // Round the set count up: flooring would silently build a
            // smaller table than requested whenever entries % ways != 0
            // (e.g. 10 entries 4-way used to yield capacity 8).
            std::size_t sets = (entries + ways - 1) / ways;
            finite_.emplace(sets, ways);
        }
    }

    /** Look up without allocating; nullptr on miss. */
    Entry *
    find(std::uint64_t key)
    {
        ++lookups_;
        Entry *entry = nullptr;
        if (finite_) {
            auto [line, hit] = finite_->walk(key);
            if (hit)
                entry = &finite_->touch(line);
        } else {
            auto it = unbounded_.find(key);
            entry = it == unbounded_.end() ? nullptr : &it->second;
        }
        if (entry)
            ++hits_;
        return entry;
    }

    /** Look up, allocating a default entry (evicting LRU) on miss.
     *  One set walk total. */
    Entry &
    findOrAllocate(std::uint64_t key)
    {
        if (finite_) {
            auto [line, hit] = finite_->walk(key);
            if (!hit)
                install(line, key);
            return finite_->touch(line);
        }
        auto [it, inserted] = unbounded_.try_emplace(key);
        if (inserted)
            ++allocations_;
        return it->second;
    }

    /**
     * The predictors' training probe: find(key), and on a miss
     * allocate only when `allocate` holds (the Section 3.1 allocation
     * filter decides). One walk, with the counter trajectory of a
     * find() followed by a findOrAllocate(): one lookup (hit
     * counted), and allocation/eviction accounting only when a miss
     * allocates. Returns nullptr on a non-allocating miss.
     */
    Entry *
    probeOrInsert(std::uint64_t key, bool allocate)
    {
        ++lookups_;
        if (finite_) {
            auto [line, hit] = finite_->walk(key);
            if (hit)
                ++hits_;
            else if (allocate)
                install(line, key);
            else
                return nullptr;
            return &finite_->touch(line);
        }
        if (auto it = unbounded_.find(key); it != unbounded_.end()) {
            ++hits_;
            return &it->second;
        }
        if (!allocate)
            return nullptr;
        ++allocations_;
        return &unbounded_.try_emplace(key).first->second;
    }

    /** Number of live entries. */
    std::size_t
    size() const
    {
        return finite_ ? finite_->valid : unbounded_.size();
    }

    bool unbounded() const { return !finite_.has_value(); }

    /** Constructed capacity (>= requested entries); 0 if unbounded. */
    std::size_t
    capacity() const
    {
        return finite_ ? finite_->meta.size() : 0;
    }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Checkpoint the backing store (whichever variant) + counters.
     *  Entry must be trivially copyable; the finite geometry is
     *  rebuilt from parameters and verified by the plane size. */
    template <typename W>
    void
    ckptSave(W &w) const
    {
        if (finite_) {
            w.podVec(finite_->meta);
            w.podVec(finite_->payloads);
            w.u64(finite_->valid);
            w.u64(finite_->useClock);
        } else {
            unbounded_.ckptSave(w);
        }
        w.u64(lookups_);
        w.u64(hits_);
        w.u64(allocations_);
        w.u64(evictions_);
    }

    template <typename R>
    void
    ckptLoad(R &r)
    {
        if (finite_) {
            auto meta = r.template podVec<Line>();
            dsp_assert(meta.size() == finite_->meta.size(),
                       "checkpointed predictor table has %zu lines, "
                       "machine has %zu (configuration mismatch)",
                       meta.size(), finite_->meta.size());
            finite_->meta = std::move(meta);
            finite_->payloads = r.template podVec<Entry>();
            finite_->valid = r.u64();
            finite_->useClock = r.u64();
        } else {
            unbounded_.ckptLoad(r);
        }
        lookups_ = r.u64();
        hits_ = r.u64();
        allocations_ = r.u64();
        evictions_ = r.u64();
    }

  private:
    /** A way's key and LRU stamp; lastUse == 0 marks a free way. */
    struct Line {
        std::uint64_t key;
        std::uint64_t lastUse;
    };

    /**
     * The finite variant: true LRU per set over two planes indexed
     * set * ways + way. The key/stamp plane is what a walk reads (64
     * bytes per 4-way set); the payload plane is touched
     * only at the chosen line, since a predictor entry can be far
     * larger than its key (GroupEntry is 64 B at 256 nodes). The
     * 64-bit use clock never wraps, so stamps need no renormalizing.
     */
    struct Finite {
        Finite(std::size_t sets, std::size_t ways)
            : sets(sets), ways(ways), meta(sets * ways, Line{0, 0}),
              payloads(sets * ways), pow2((sets & (sets - 1)) == 0)
        {
        }

        /** First line of key's set: a mask for power-of-two set
         *  counts, a division otherwise. */
        std::size_t
        base(std::uint64_t key) const
        {
            return static_cast<std::size_t>(pow2 ? key & (sets - 1)
                                                 : key % sets) *
                   ways;
        }

        /**
         * The one walk of key's set: {matching line, true} on a hit;
         * on a miss {first free way, else the least recently used
         * way (strict-minimum stamp, so the lower way on ties),
         * false}.
         */
        std::pair<std::size_t, bool>
        walk(std::uint64_t key) const
        {
            std::size_t first = base(key);
            std::size_t victim = first;
            std::uint64_t victim_use = meta[first].lastUse;
            for (std::size_t line = first; line < first + ways; ++line) {
                std::uint64_t use = meta[line].lastUse;
                if (use != 0 && meta[line].key == key)
                    return {line, true};
                if (use < victim_use) {
                    victim = line;
                    victim_use = use;
                }
            }
            return {victim, false};
        }

        /** Make `line` the most recently used; returns its payload. */
        Entry &
        touch(std::size_t line)
        {
            meta[line].lastUse = ++useClock;
            return payloads[line];
        }

        std::size_t sets;
        std::size_t ways;
        std::vector<Line> meta;
        std::vector<Entry> payloads;
        bool pow2;
        std::size_t valid = 0;
        std::uint64_t useClock = 0;
    };

    /** Install a default entry for `key` at a miss walk's line,
     *  counting the allocation and any eviction. */
    void
    install(std::size_t line, std::uint64_t key)
    {
        ++allocations_;
        if (finite_->meta[line].lastUse != 0)
            ++evictions_;
        else
            ++finite_->valid;
        finite_->meta[line].key = key;
        finite_->payloads[line] = Entry{};
    }

    std::optional<Finite> finite_;
    FlatMap<std::uint64_t, Entry> unbounded_;

    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace dsp

#endif // DSP_CORE_PREDICTOR_TABLE_HH
