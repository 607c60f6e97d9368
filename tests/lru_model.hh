/**
 * @file
 * Naive true-LRU reference model for the set-associative tables'
 * tests: per set, the resident keys ordered least to most recently
 * used. Set index is key % sets, as in every table under test.
 */

#ifndef DSP_TESTS_LRU_MODEL_HH
#define DSP_TESTS_LRU_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace dsp {

class LruModel
{
  public:
    using Line = std::pair<std::uint64_t, std::uint32_t>;  // key, payload

    LruModel(std::size_t sets, std::size_t ways) : ways_(ways), sets_(sets) {}

    /** Hit: make the key most recent and return its line. */
    std::optional<Line>
    find(std::uint64_t key)
    {
        auto &set = setOf(key);
        auto it = locate(set, key);
        if (it == set.end())
            return std::nullopt;
        std::rotate(it, it + 1, set.end());
        return set.back();
    }

    /** Install or overwrite as most recent; returns the evicted line. */
    std::optional<Line>
    insert(std::uint64_t key, std::uint32_t payload = 0)
    {
        std::optional<Line> evicted;
        auto &set = setOf(key);
        if (auto it = locate(set, key); it != set.end()) {
            set.erase(it);
        } else if (set.size() == ways_) {
            evicted = set.front();
            set.erase(set.begin());
        }
        set.emplace_back(key, payload);
        return evicted;
    }

    bool
    erase(std::uint64_t key)
    {
        auto &set = setOf(key);
        auto it = locate(set, key);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

  private:
    std::vector<Line> &setOf(std::uint64_t key)
    {
        return sets_[key % sets_.size()];
    }

    static std::vector<Line>::iterator
    locate(std::vector<Line> &set, std::uint64_t key)
    {
        return std::find_if(set.begin(), set.end(),
                            [key](const Line &l) { return l.first == key; });
    }

    std::size_t ways_;
    std::vector<std::vector<Line>> sets_;
};

} // namespace dsp

#endif // DSP_TESTS_LRU_MODEL_HH
