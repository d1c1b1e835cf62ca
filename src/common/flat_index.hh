/**
 * @file
 * Open-addressing hash index from 64-bit keys to 32-bit values.
 */

#ifndef UNICO_COMMON_FLAT_INDEX_HH
#define UNICO_COMMON_FLAT_INDEX_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"

namespace unico::common {

/**
 * A map from 64-bit keys (any bit pattern) to 32-bit values, held in
 * one flat array: linear probing from mix64(key), doubling before the
 * table is half full. A generation stamp marks the live slots, so
 * clear() is O(1) and the table keeps its memory: a caller that
 * empties it once per use allocates only when it grows.
 */
class FlatIndex
{
  public:
    /**
     * The value stored for @p key, after inserting @p value when the
     * key is absent; .second is true when it was inserted.
     */
    std::pair<std::uint32_t, bool>
    emplace(std::uint64_t key, std::uint32_t value)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (s.stamp != stamp_) {
                s = Slot{key, value, stamp_};
                ++size_;
                return {value, true};
            }
            if (s.key == key)
                return {s.value, false};
        }
    }

    /** True when @p key was inserted since the last clear(). */
    bool
    contains(std::uint64_t key) const
    {
        if (size_ == 0)
            return false;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (s.stamp != stamp_)
                return false;
            if (s.key == key)
                return true;
        }
    }

    std::size_t size() const { return size_; }

    void
    clear()
    {
        size_ = 0;
        if (++stamp_ == 0) {
            // The stamp wrapped: slots stamped long ago would look live.
            for (Slot &s : slots_)
                s.stamp = 0;
            stamp_ = 1;
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t value = 0;
        std::uint32_t stamp = 0; ///< live when equal to stamp_
    };

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
        const std::uint32_t live = stamp_;
        stamp_ = 1;
        size_ = 0;
        for (const Slot &s : old)
            if (s.stamp == live)
                emplace(s.key, s.value);
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::uint32_t stamp_ = 1;
};

} // namespace unico::common

#endif // UNICO_COMMON_FLAT_INDEX_HH
