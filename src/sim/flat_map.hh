/**
 * @file
 * Open-addressing flat hash containers for the simulator's hot
 * paths (DESIGN.md §12). FlatMap/FlatSet replace std::unordered_map
 * and std::unordered_set wherever page/region metadata is touched
 * per trace record: entries live contiguously in insertion order (a
 * dense vector), and a separate power-of-two bucket index with
 * linear probing resolves keys — one predictable probe sequence
 * instead of a pointer chase per lookup.
 *
 * Iteration visits live entries in insertion order, which is a
 * deterministic function of the operation sequence alone. That is a
 * stronger contract than the standard containers offer and is why
 * lint rule D1 treats FlatMap/FlatSet loops as order-deterministic
 * without an annotation.
 *
 * Invariants (tested differentially in tests/flat_map_test.cc):
 *  - the bucket index references live dense entries only; erase
 *    removes the bucket with backward-shift deletion so probe
 *    chains never contain holes;
 *  - erased dense slots become tombstones; compaction (which drops
 *    tombstones and preserves insertion order of survivors) happens
 *    only on insert paths, so erase(iterator) stays valid;
 *  - the bucket count is a power of two and the live load factor
 *    never exceeds 3/4.
 */

#ifndef STARNUMA_SIM_FLAT_MAP_HH
#define STARNUMA_SIM_FLAT_MAP_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/annotations.hh"
#include "sim/logging.hh"

namespace starnuma
{

namespace detail
{

/**
 * Fibonacci (golden-ratio multiply) mixer applied on top of
 * std::hash. libstdc++'s integer hash is the identity, so the
 * product's HIGH bits are what callers must keep (FlatMap shifts
 * them down to the bucket index). For the simulator's dominant key
 * pattern — densely allocated page numbers — consecutive keys then
 * land maximally far apart (the three-distance theorem), giving
 * ~1.0 probes per lookup where a bit-masked or avalanched hash
 * clusters. One multiply; this runs once per replayed trace record.
 */
inline std::uint64_t
mixHash(std::uint64_t x)
{
    return x * 0x9e3779b97f4a7c15ULL;
}

/** Mapped type of FlatSet's underlying FlatMap. */
struct Unit
{
};

} // namespace detail

/** Insertion-ordered open-addressing hash map. */
template <typename Key, typename T, typename Hash = std::hash<Key>>
class FlatMap
{
  public:
    using value_type = std::pair<Key, T>;

    template <bool Const>
    class basic_iterator
    {
        using MapPtr = std::conditional_t<Const, const FlatMap *,
                                          FlatMap *>;

      public:
        using reference = std::conditional_t<Const,
                                             const value_type &,
                                             value_type &>;
        using pointer =
            std::conditional_t<Const, const value_type *,
                               value_type *>;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::forward_iterator_tag;

        basic_iterator() = default;

        /** Non-const converts to const. */
        template <bool C = Const,
                  typename = std::enable_if_t<C>>
        basic_iterator(const basic_iterator<false> &other)
            : m(other.m), pos(other.pos)
        {
        }

        reference operator*() const { return m->dense_[pos]; }
        pointer operator->() const { return &m->dense_[pos]; }

        basic_iterator &
        operator++()
        {
            ++pos;
            skipDead();
            return *this;
        }

        basic_iterator
        operator++(int)
        {
            basic_iterator old = *this;
            ++*this;
            return old;
        }

        bool
        operator==(const basic_iterator &o) const
        {
            return pos == o.pos;
        }
        bool
        operator!=(const basic_iterator &o) const
        {
            return pos != o.pos;
        }

      private:
        friend class FlatMap;
        template <bool>
        friend class basic_iterator;

        basic_iterator(MapPtr map, std::size_t position)
            : m(map), pos(position)
        {
        }

        void
        skipDead()
        {
            while (pos < m->dense_.size() && m->dead_[pos])
                ++pos;
        }

        MapPtr m = nullptr;
        std::size_t pos = 0;
    };

    using iterator = basic_iterator<false>;
    using const_iterator = basic_iterator<true>;

    FlatMap() = default;

    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }

    iterator
    begin()
    {
        iterator it(this, 0);
        it.skipDead();
        return it;
    }
    iterator end() { return iterator(this, dense_.size()); }
    const_iterator
    begin() const
    {
        const_iterator it(this, 0);
        it.skipDead();
        return it;
    }
    const_iterator
    end() const
    {
        return const_iterator(this, dense_.size());
    }

    /** Prepare for @p n live entries without rehashing on the way. */
    // lint: cold-path up-front sizing, called before the replay loop
    void
    reserve(std::size_t n)
    {
        dense_.reserve(n);
        dead_.reserve(n);
        std::size_t want = bucketsFor(n);
        if (want > index_.size())
            rebuild(want);
    }

    void
    clear()
    {
        dense_.clear();
        dead_.clear();
        // lint: cold-path same-size assign reuses the existing
        // index storage; nothing grows.
        index_.assign(index_.size(), 0);
        live_ = 0;
        tombstones_ = 0;
    }

    // lint: hot-path one probe per replayed trace record
    iterator
    find(const Key &key)
    {
        std::size_t slot = findSlot(key);
        return slot == npos ? end()
                            : iterator(this, index_[slot] - 1);
    }

    const_iterator
    find(const Key &key) const
    {
        std::size_t slot = findSlot(key);
        return slot == npos
                   ? end()
                   : const_iterator(this, index_[slot] - 1);
    }

    // lint: hot-path one probe per replayed trace record
    bool contains(const Key &key) const
    {
        return findSlot(key) != npos;
    }
    std::size_t count(const Key &key) const
    {
        return contains(key) ? 1 : 0;
    }

    // lint: hot-path one probe per replayed trace record
    T &
    at(const Key &key)
    {
        std::size_t slot = findSlot(key);
        sn_assert(slot != npos, "FlatMap::at: key not found");
        return dense_[index_[slot] - 1].second;
    }

    const T &
    at(const Key &key) const
    {
        std::size_t slot = findSlot(key);
        sn_assert(slot != npos, "FlatMap::at: key not found");
        return dense_[index_[slot] - 1].second;
    }

    // lint: hot-path one probe per replayed trace record
    T &operator[](const Key &key)
    {
        return try_emplace(key).first->second;
    }

    // lint: hot-path the dominant per-record probe-or-insert; all
    // growth is outlined into the cold appendEntry, growForInsert
    // and rebuild.
    template <typename... Args>
    std::pair<iterator, bool>
    try_emplace(const Key &key, Args &&...args)
    {
        // Probe before any growth check: the dominant call pattern
        // (one lookup per replayed trace record) finds the key and
        // must not pay for insert bookkeeping.
        std::size_t b = 0;
        if (!index_.empty()) {
            b = bucketOf(key);
            while (index_[b] != 0) {
                if (dense_[index_[b] - 1].first == key)
                    return {iterator(this, index_[b] - 1), false};
                b = (b + 1) & mask_;
            }
        }
        if (index_.empty() ||
            (live_ + 1) * 4 > index_.size() * 3 ||
            (tombstones_ > live_ && tombstones_ > 16)) {
            growForInsert();
            b = bucketOf(key);
            while (index_[b] != 0)
                b = (b + 1) & mask_;
        }
        appendEntry(key, std::forward<Args>(args)...);
        index_[b] = static_cast<std::uint32_t>(dense_.size());
        ++live_;
        return {iterator(this, dense_.size() - 1), true};
    }

    template <typename... Args>
    std::pair<iterator, bool>
    emplace(Args &&...args)
    {
        return insert(value_type(std::forward<Args>(args)...));
    }

    std::pair<iterator, bool>
    insert(const value_type &v)
    {
        return try_emplace(v.first, v.second);
    }

    std::pair<iterator, bool>
    insert(value_type &&v)
    {
        return try_emplace(v.first, std::move(v.second));
    }

    // lint: hot-path pool-resident bookkeeping erases per record
    std::size_t
    erase(const Key &key)
    {
        std::size_t slot = findSlot(key);
        if (slot == npos)
            return 0;
        eraseAtSlot(slot);
        return 1;
    }

    /** Same key/value pairs, irrespective of insertion order. */
    bool
    operator==(const FlatMap &o) const
    {
        if (size() != o.size())
            return false;
        for (const auto &kv : *this) {
            auto it = o.find(kv.first);
            if (it == o.end() || !(it->second == kv.second))
                return false;
        }
        return true;
    }

    bool operator!=(const FlatMap &o) const { return !(*this == o); }

    /** Erase the entry at @p it; @return the next live entry. */
    iterator
    erase(iterator it)
    {
        std::size_t slot = findSlot(dense_[it.pos].first);
        sn_assert(slot != npos && index_[slot] - 1 == it.pos,
                  "FlatMap::erase of invalid iterator");
        eraseAtSlot(slot);
        it.skipDead();
        return it;
    }

  private:
    static constexpr std::size_t npos = ~std::size_t(0);

    std::size_t
    bucketOf(const Key &key) const
    {
        // High bits of the Fibonacci product (shift_ encodes the
        // bucket count); only valid while index_ is non-empty.
        return static_cast<std::size_t>(
            detail::mixHash(Hash{}(key)) >> shift_);
    }

    /** Bucket count for @p n live entries at load factor <= 3/4. */
    static std::size_t
    bucketsFor(std::size_t n)
    {
        std::size_t want = 16;
        while (want * 3 < n * 4)
            want <<= 1;
        return want;
    }

    /** Index slot of @p key, or npos. */
    std::size_t
    findSlot(const Key &key) const
    {
        if (index_.empty())
            return npos;
        std::size_t b = bucketOf(key);
        while (index_[b] != 0) {
            if (dense_[index_[b] - 1].first == key)
                return b;
            b = (b + 1) & mask_;
        }
        return npos;
    }

    void
    eraseAtSlot(std::size_t slot)
    {
        dead_[index_[slot] - 1] = 1;
        --live_;
        ++tombstones_;
        removeFromIndex(slot);
    }

    /**
     * Backward-shift deletion: empty @p hole, then walk the probe
     * chain after it, pulling back any entry whose ideal bucket
     * lies at or before the hole — probe sequences never cross an
     * empty slot, so lookups stay correct without tombstone marks
     * in the index.
     */
    void
    removeFromIndex(std::size_t hole)
    {
        std::size_t j = hole;
        index_[hole] = 0;
        for (;;) {
            j = (j + 1) & mask_;
            if (index_[j] == 0)
                return;
            std::size_t ideal =
                bucketOf(dense_[index_[j] - 1].first);
            if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
                index_[hole] = index_[j];
                index_[j] = 0;
                hole = j;
            }
        }
    }

    /**
     * Append to the dense arrays, outlined so that no hot symbol
     * inlining try_emplace carries the vectors' reallocation path
     * (-O3 inlines it, operator new included).
     */
    // lint: cold-path amortized dense growth; reserve() backs the
    // replay-loop uses, so these appends never reallocate there
    template <typename... Args>
    STARNUMA_COLD_PATH void
    appendEntry(const Key &key, Args &&...args)
    {
        dense_.emplace_back(
            std::piecewise_construct, std::forward_as_tuple(key),
            std::forward_as_tuple(std::forward<Args>(args)...));
        dead_.push_back(0);
    }

    /** Make room for one more entry: grow or drop tombstones. */
    // lint: cold-path amortized growth, outlined so the hot insert
    // symbol carries no allocation (see check_hotpath_syms.sh)
    STARNUMA_COLD_PATH void
    growForInsert()
    {
        if (index_.empty() || (live_ + 1) * 4 > index_.size() * 3)
            rebuild(bucketsFor(live_ + 1));
        else if (tombstones_ > live_ && tombstones_ > 16)
            rebuild(index_.size());
    }

    /**
     * Rebuild with @p buckets buckets, dropping tombstones while
     * preserving the insertion order of live entries. Invalidates
     * iterators; called from insert paths only.
     */
    // lint: cold-path rehash, amortized over many inserts
    STARNUMA_COLD_PATH void
    rebuild(std::size_t buckets)
    {
        if (tombstones_ != 0) {
            std::vector<value_type> survivors;
            survivors.reserve(live_);
            for (std::size_t i = 0; i < dense_.size(); ++i)
                if (!dead_[i])
                    survivors.push_back(std::move(dense_[i]));
            dense_ = std::move(survivors);
            dead_.assign(dense_.size(), 0);
            tombstones_ = 0;
        }
        index_.assign(buckets, 0);
        mask_ = buckets - 1;
        shift_ = 64;
        for (std::size_t b = buckets; b > 1; b >>= 1)
            --shift_;
        for (std::size_t i = 0; i < dense_.size(); ++i) {
            std::size_t b = bucketOf(dense_[i].first);
            while (index_[b] != 0)
                b = (b + 1) & mask_;
            index_[b] = static_cast<std::uint32_t>(i + 1);
        }
    }

    std::vector<value_type> dense_;
    std::vector<std::uint8_t> dead_;
    std::vector<std::uint32_t> index_; ///< dense index + 1; 0 empty
    std::size_t mask_ = 0;
    int shift_ = 64; ///< 64 - log2(buckets); see bucketOf
    std::size_t live_ = 0;
    std::size_t tombstones_ = 0;
};

/** Insertion-ordered open-addressing hash set. */
template <typename Key, typename Hash = std::hash<Key>>
class FlatSet
{
    using Impl = FlatMap<Key, detail::Unit, Hash>;

  public:
    class const_iterator
    {
      public:
        using reference = const Key &;
        using pointer = const Key *;
        using value_type = Key;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::forward_iterator_tag;

        const_iterator() = default;

        reference operator*() const { return it->first; }
        pointer operator->() const { return &it->first; }

        const_iterator &
        operator++()
        {
            ++it;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++it;
            return old;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return it == o.it;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return it != o.it;
        }

      private:
        friend class FlatSet;
        explicit const_iterator(typename Impl::const_iterator i)
            : it(i)
        {
        }

        typename Impl::const_iterator it;
    };

    using iterator = const_iterator;

    FlatSet() = default;

    std::size_t size() const { return m.size(); }
    bool empty() const { return m.empty(); }
    void clear() { m.clear(); }
    void reserve(std::size_t n) { m.reserve(n); }

    const_iterator
    begin() const
    {
        return const_iterator(m.begin());
    }
    const_iterator
    end() const
    {
        return const_iterator(m.end());
    }

    // lint: hot-path one probe-or-insert per replayed trace record
    std::pair<const_iterator, bool>
    insert(const Key &key)
    {
        auto [it, inserted] = m.try_emplace(key);
        return {const_iterator(typename Impl::const_iterator(it)),
                inserted};
    }

    // lint: hot-path pool-resident bookkeeping erases per record
    std::size_t erase(const Key &key) { return m.erase(key); }

    const_iterator
    find(const Key &key) const
    {
        return const_iterator(m.find(key));
    }

    // lint: hot-path one probe per replayed trace record
    bool contains(const Key &key) const { return m.contains(key); }
    std::size_t count(const Key &key) const { return m.count(key); }

    /** Same keys, irrespective of insertion order. */
    bool
    operator==(const FlatSet &o) const
    {
        if (size() != o.size())
            return false;
        for (const Key &key : *this)
            if (!o.contains(key))
                return false;
        return true;
    }

    bool operator!=(const FlatSet &o) const { return !(*this == o); }

  private:
    Impl m;
};

} // namespace starnuma

#endif // STARNUMA_SIM_FLAT_MAP_HH
