/**
 * @file
 * A flat table over a dense integer key range: one slot per key in
 * [base, base + size), found at key - base. The page map, the T_i
 * region tracker and the per-page access counts each keep their
 * per-key state in one (DESIGN.md §12).
 *
 * Replay reserves the trace's dense page span before the first key,
 * so a hot-path lookup is one subtraction and one bounds check. A
 * key outside the current range grows the table, downward too, in
 * one outlined cold function; unit tests and sparse hand-built
 * traces need no reservation. New slots hold the table's fill value.
 * The table does not iterate: a class that visits its keys keeps its
 * own first-touch order vector, so iteration never depends on the
 * range the table happened to cover.
 */

#ifndef STARNUMA_SIM_DENSE_TABLE_HH
#define STARNUMA_SIM_DENSE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/annotations.hh"
#include "sim/logging.hh"

namespace starnuma
{

/**
 * Slots of @p T indexed by @p Key, an unsigned integer or a strong
 * integer type (sim/strong.hh).
 */
template <typename Key, typename T>
class DenseTable
{
  public:
    /** @param fill the value of a slot no key has written yet. */
    explicit DenseTable(T fill = T{}) : fill_(fill) {}

    /**
     * Reserve slots for keys [base, base + n). Must be called before
     * the first slot exists; n == 0 reserves nothing.
     */
    // lint: cold-path one-time setup before the replay loop
    void
    reserve(Key base, std::size_t n)
    {
        sn_assert(slots.empty(), "reserve before the first key");
        base_ = raw(base);
        slots.assign(n, fill_);
    }

    /** Slot of @p key, or null when the table does not cover it. */
    T *
    find(Key key)
    {
        std::uint64_t i = raw(key) - base_;
        return i < slots.size() ? &slots[i] : nullptr;
    }

    const T *
    find(Key key) const
    {
        std::uint64_t i = raw(key) - base_;
        return i < slots.size() ? &slots[i] : nullptr;
    }

    /** Slot of @p key, growing the table to cover it. */
    T &
    slot(Key key)
    {
        std::uint64_t i = raw(key) - base_;
        if (i < slots.size())
            return slots[i];
        return grow(raw(key));
    }

  private:
    static constexpr std::uint64_t
    raw(Key key)
    {
        if constexpr (std::is_integral_v<Key>)
            return key;
        else
            return key.value();
    }

    /**
     * Extend the range to cover @p k by at least the current size,
     * so keys arriving in any order grow it in amortized O(1).
     */
    // lint: cold-path a reserved table never grows
    STARNUMA_COLD_PATH T &
    grow(std::uint64_t k)
    {
        std::uint64_t n = slots.size();
        if (n == 0) {
            base_ = k;
            slots.assign(1, fill_);
        } else if (k < base_) {
            std::uint64_t extra = std::min(std::max(base_ - k, n), base_);
            slots.insert(slots.begin(), extra, fill_);
            base_ -= extra;
        } else {
            slots.resize(std::max(k - base_ + 1, 2 * n), fill_);
        }
        return slots[k - base_];
    }

    std::uint64_t base_ = 0;
    std::vector<T> slots;
    T fill_;
};

} // namespace starnuma

#endif // STARNUMA_SIM_DENSE_TABLE_HH
