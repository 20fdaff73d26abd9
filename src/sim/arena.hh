/**
 * @file
 * Fixed-size monotonic arena (DESIGN.md §12). Per-phase metadata
 * (per-page counter blocks, scratch tables) is carved out of one
 * contiguous buffer with a bump pointer: allocation is an add and
 * an alignment round-up, and the whole arena is released at once by
 * reset() when the phase ends.
 *
 * Lifetime rules: an arena never frees individual allocations;
 * pointers stay valid until reset() (or destruction). Exhaustion is
 * reported, not overflowed — allocate() returns nullptr when the
 * request does not fit, and the caller either chains a fresh arena
 * or fails loudly. The arena never grows behind the caller's back,
 * so pointers handed out are stable for its whole lifetime.
 */

#ifndef STARNUMA_SIM_ARENA_HH
#define STARNUMA_SIM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "sim/logging.hh"

namespace starnuma
{

/** Monotonic bump allocator over one fixed buffer. */
class Arena
{
  public:
    explicit Arena(std::size_t capacity_bytes)
        : storage(new unsigned char[capacity_bytes]),
          capacity_(capacity_bytes)
    {
        sn_assert(capacity_bytes > 0, "arena needs capacity");
    }

    Arena(Arena &&) = default;
    Arena &operator=(Arena &&) = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p bytes aligned to @p align (a power of two).
     * @return nullptr when the arena is exhausted — the request is
     * counted but never overflows the buffer.
     */
    void *
    allocate(std::size_t bytes,
             std::size_t align = alignof(std::max_align_t))
    {
        sn_assert(align != 0 && (align & (align - 1)) == 0,
                  "arena alignment must be a power of two");
        // Align the actual address, not the offset: new[] only
        // guarantees max_align_t, so requests above that would
        // come back misaligned if the buffer base is unlucky.
        auto base =
            reinterpret_cast<std::uintptr_t>(storage.get());
        std::size_t aligned = static_cast<std::size_t>(
            ((base + offset + align - 1) & ~(align - 1)) - base);
        if (aligned > capacity_ || capacity_ - aligned < bytes) {
            ++exhaustions_;
            return nullptr;
        }
        offset = aligned + bytes;
        return storage.get() + aligned;
    }

    /**
     * Allocate a zero-initialized array of @p n trivially-copyable
     * @p T. @return nullptr on exhaustion.
     */
    template <typename T>
    T *
    allocArray(std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena arrays skip constructors");
        if (n > capacity_ / sizeof(T)) {
            ++exhaustions_;
            return nullptr;
        }
        void *p = allocate(n * sizeof(T), alignof(T));
        if (p)
            std::memset(p, 0, n * sizeof(T));
        return static_cast<T *>(p);
    }

    /** Release everything at once; capacity is fully available. */
    void reset() { offset = 0; }

    std::size_t capacity() const { return capacity_; }
    std::size_t used() const { return offset; }
    std::size_t remaining() const { return capacity_ - offset; }

    /** Allocations refused for lack of space since construction. */
    std::uint64_t exhaustions() const { return exhaustions_; }

  private:
    std::unique_ptr<unsigned char[]> storage;
    std::size_t capacity_;
    std::size_t offset = 0;
    std::uint64_t exhaustions_ = 0;
};

/**
 * Fixed-capacity pool of trivially-copyable @p T carved out of an
 * Arena: slots are addressed by index and recycled through a free
 * stack, so allocate/release are a load and a store. Exhausting
 * the pool is an invariant failure — size it for the worst case.
 */
template <typename T>
class FixedPool
{
  public:
    FixedPool(Arena &arena, std::uint32_t capacity)
        : items(arena.allocArray<T>(capacity)),
          freeSlots(arena.allocArray<std::uint32_t>(capacity)),
          capacity_(capacity), free_(capacity)
    {
        sn_assert(items && freeSlots, "arena too small for the pool");
        // Hand out low slots first.
        for (std::uint32_t i = 0; i < capacity; ++i)
            freeSlots[i] = capacity - 1 - i;
    }

    /** Bytes of arena a pool of @p capacity needs, alignment
     *  padding included. */
    static constexpr std::size_t
    arenaBytes(std::uint32_t capacity)
    {
        return capacity * (sizeof(T) + sizeof(std::uint32_t)) +
               alignof(T) + alignof(std::uint32_t);
    }

    std::uint32_t
    allocate()
    {
        sn_assert(free_ > 0, "fixed pool of %u exhausted", capacity_);
        return freeSlots[--free_];
    }

    void release(std::uint32_t slot) { freeSlots[free_++] = slot; }

    T &operator[](std::uint32_t slot) { return items[slot]; }

    std::uint32_t capacity() const { return capacity_; }

    /** Slots currently handed out. */
    std::uint32_t live() const { return capacity_ - free_; }

  private:
    T *items;
    std::uint32_t *freeSlots;
    std::uint32_t capacity_;
    std::uint32_t free_;
};

} // namespace starnuma

#endif // STARNUMA_SIM_ARENA_HH
