/**
 * @file
 * Unit tests for PredictorTable: finite sizing invariants (requested
 * capacity is never silently shrunk), allocation/eviction accounting,
 * the finite table's LRU against a naive reference model, checkpoint
 * round trips, and the unbounded (flat-map backed) variant.
 */

#include <gtest/gtest.h>

#include "checkpoint/checkpoint.hh"
#include "core/predictor_table.hh"
#include "lru_model.hh"
#include "sim/rng.hh"

namespace dsp {
namespace {

struct Entry {
    int value = 0;
};

TEST(PredictorTable, CapacityNeverBelowRequestedEntries)
{
    // 10 entries 4-way used to floor to 2 sets = capacity 8; the set
    // count must round up instead.
    PredictorTable<Entry> t(10, 4);
    EXPECT_FALSE(t.unbounded());
    EXPECT_GE(t.capacity(), 10u);
    EXPECT_EQ(t.capacity(), 12u);  // 3 sets x 4 ways

    PredictorTable<Entry> exact(8192, 4);
    EXPECT_EQ(exact.capacity(), 8192u);

    PredictorTable<Entry> prime(13, 4);
    EXPECT_GE(prime.capacity(), 13u);

    // ways > entries clamps to fully-associative over `entries`.
    PredictorTable<Entry> clamped(3, 8);
    EXPECT_EQ(clamped.capacity(), 3u);
}

TEST(PredictorTable, FindNeverAllocates)
{
    PredictorTable<Entry> t(16, 4);
    EXPECT_EQ(t.find(1), nullptr);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.allocations(), 0u);
    EXPECT_EQ(t.lookups(), 1u);
    EXPECT_EQ(t.hits(), 0u);
}

TEST(PredictorTable, FindOrAllocateFillsAndEvicts)
{
    // 4 entries, 2 ways -> 2 sets.
    PredictorTable<Entry> t(4, 2);
    for (std::uint64_t k = 0; k < 4; ++k)
        t.findOrAllocate(k).value = static_cast<int>(k);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.allocations(), 4u);
    EXPECT_EQ(t.evictions(), 0u);

    // A fifth key lands in some set and evicts its LRU way.
    t.findOrAllocate(4).value = 4;
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.evictions(), 1u);
    Entry *entry = t.find(4);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->value, 4);
}

/**
 * Drives a finite table and a reference model with the same random
 * stream of find / probeOrInsert / findOrAllocate calls, asserting
 * every hit, payload, counter, and evicted key. Each allocation gets
 * a fresh payload, so a stale or misplaced line shows as a mismatch.
 */
class LruChecker
{
  public:
    LruChecker(std::size_t entries, std::size_t ways, std::uint64_t seed)
        : table_(entries, ways), rng_(seed)
    {
        std::size_t w = ways > entries ? entries : ways;
        model_.emplace(table_.capacity() / w, w);
    }

    PredictorTable<Entry> &table() { return table_; }

    /** One random operation over keys [0, key_space). */
    void
    step(std::uint64_t key_space)
    {
        std::uint64_t key = rng_.uniformInt(key_space);
        int op = static_cast<int>(rng_.uniformInt(4));
        std::uint64_t size_before = table_.size();
        std::uint64_t evictions_before = table_.evictions();
        std::uint64_t allocations_before = table_.allocations();

        Entry *entry = nullptr;
        bool allocates = op >= 2;  // ops 2 and 3 allocate on a miss
        if (op == 0)
            entry = table_.find(key);
        else if (op == 1)
            entry = table_.probeOrInsert(key, false);
        else if (op == 2)
            entry = table_.probeOrInsert(key, true);
        else
            entry = &table_.findOrAllocate(key);

        auto hit = model_->find(key);
        if (hit) {
            ASSERT_NE(entry, nullptr) << "key " << key;
            ASSERT_EQ(entry->value, static_cast<int>(hit->second));
            ASSERT_EQ(table_.allocations(), allocations_before);
        } else if (!allocates) {
            ASSERT_EQ(entry, nullptr) << "key " << key;
            ASSERT_EQ(table_.allocations(), allocations_before);
        } else {
            ASSERT_NE(entry, nullptr);
            ASSERT_EQ(entry->value, 0);  // freshly default-constructed
            entry->value = static_cast<int>(++nextValue_);
            auto evicted = model_->insert(key, nextValue_);
            ASSERT_EQ(table_.allocations(), allocations_before + 1);
            ASSERT_EQ(table_.evictions(),
                      evictions_before + (evicted ? 1 : 0));
            if (evicted) {
                ASSERT_EQ(table_.size(), size_before);
                // The model's LRU line is the one that left the table
                // (a miss touches nothing, on either side).
                ASSERT_EQ(table_.find(evicted->first), nullptr)
                    << "evicted key " << evicted->first;
            }
        }
        ASSERT_EQ(table_.size(), model_->size());
        ASSERT_LE(table_.size(), table_.capacity());
    }

    void
    run(int steps, std::uint64_t key_space)
    {
        for (int i = 0; i < steps && !::testing::Test::HasFatalFailure();
             ++i)
            step(key_space);
    }

  private:
    PredictorTable<Entry> table_;
    std::optional<LruModel> model_;
    Rng rng_;
    std::uint32_t nextValue_ = 0;
};

TEST(PredictorTable, FiniteLruMatchesReferenceModel)
{
    // The paper's 8192-entry 4-way table (power-of-two set mask), a
    // 3-set table (modulo indexing), and a clamped fully associative
    // one; key spaces a few times capacity keep every set churning.
    struct Geometry {
        std::size_t entries, ways;
        std::uint64_t keySpace;
        int steps;
    };
    for (Geometry g : {Geometry{8192, 4, 3 * 8192, 200000},
                       Geometry{10, 4, 40, 20000},
                       Geometry{3, 8, 8, 20000}}) {
        SCOPED_TRACE(testing::Message()
                     << g.entries << "x" << g.ways);
        LruChecker check(g.entries, g.ways, 7 + g.entries);
        check.run(g.steps, g.keySpace);
        EXPECT_GT(check.table().evictions(), 0u);
        EXPECT_EQ(check.table().size(), check.table().capacity());
    }
}

TEST(PredictorTable, CheckpointRoundTripMidStream)
{
    // Two tables driven identically after one is restored from the
    // other's mid-stream snapshot must agree call for call.
    PredictorTable<Entry> original(10, 4);
    Rng rng(11);
    for (int i = 0; i < 500; ++i)
        original.findOrAllocate(rng.uniformInt(40)).value = i;

    ckpt::Writer w;
    original.ckptSave(w);
    PredictorTable<Entry> restored(10, 4);
    ckpt::Reader r(w.buffer());
    restored.ckptLoad(r);
    EXPECT_EQ(restored.size(), original.size());
    EXPECT_EQ(restored.lookups(), original.lookups());
    EXPECT_EQ(restored.evictions(), original.evictions());

    for (int i = 0; i < 2000; ++i) {
        std::uint64_t key = rng.uniformInt(40);
        bool allocate = rng.chance(0.5);
        Entry *a = original.probeOrInsert(key, allocate);
        Entry *b = restored.probeOrInsert(key, allocate);
        ASSERT_EQ(a == nullptr, b == nullptr) << "step " << i;
        if (a) {
            ASSERT_EQ(a->value, b->value) << "step " << i;
            a->value = b->value = 1000 + i;
        }
        ASSERT_EQ(original.size(), restored.size());
        ASSERT_EQ(original.hits(), restored.hits());
        ASSERT_EQ(original.allocations(), restored.allocations());
        ASSERT_EQ(original.evictions(), restored.evictions());
    }
}

TEST(PredictorTable, UnboundedVariantGrowsWithoutEviction)
{
    PredictorTable<Entry> t(0, 0);
    EXPECT_TRUE(t.unbounded());
    EXPECT_EQ(t.capacity(), 0u);
    for (std::uint64_t k = 0; k < 5000; ++k)
        t.findOrAllocate(k).value = static_cast<int>(k);
    EXPECT_EQ(t.size(), 5000u);
    EXPECT_EQ(t.evictions(), 0u);
    for (std::uint64_t k = 0; k < 5000; ++k) {
        Entry *entry = t.find(k);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->value, static_cast<int>(k));
    }
    EXPECT_EQ(t.hits(), 5000u);
}

} // namespace
} // namespace dsp
