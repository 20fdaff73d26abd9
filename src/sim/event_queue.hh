/**
 * @file
 * Discrete-event kernel of the timing simulation (driver/timing_sim,
 * DESIGN.md §17). Events are plain data: a payload scheduled at an
 * absolute cycle. The queue never stores a callable; step() and
 * run() hand each due payload to a caller-supplied handler, which
 * dispatches on it (and may schedule more events).
 *
 * Storage is a calendar queue. A wheel of 2^12 one-cycle buckets
 * holds every event due within one wheel span of now(); a bitmap of
 * non-empty buckets (plus a one-word summary of the bitmap) finds
 * the next due bucket in a few instructions. Events due a full span
 * or more ahead go to a small binary heap on (when, seq) and move
 * into the wheel as soon as now() comes within a span of them.
 *
 * Ordering is exactly (when, seq): same-cycle events run FIFO in
 * scheduling order. A bucket only ever holds one cycle value, and
 * its list is in scheduling order, because a far event for cycle T
 * was necessarily scheduled while now() <= T - span, before any
 * direct insert for T was possible (that needs now() > T - span),
 * and it moves into the wheel the moment now() passes T - span,
 * before any event at the new now() runs.
 *
 * Bucket lists are head/tail indices into one node slab with a free
 * list, so building a queue allocates a few flat arrays and steady
 * state allocates nothing.
 */

#ifndef STARNUMA_SIM_EVENT_QUEUE_HH
#define STARNUMA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/annotations.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace starnuma
{

/** Calendar queue of trivially-copyable @p Payload events. */
template <typename Payload>
class EventQueue
{
    static_assert(std::is_trivially_copyable_v<Payload>,
                  "events are plain data");

  public:
    /** Cycles covered by the wheel; farther events wait in a heap. */
    static constexpr std::uint64_t wheelSpan = 1u << 12;

    EventQueue() : wheel(wheelSpan, Bucket{nil, nil})
    {
        slab.reserve(1024);
        far.reserve(64);
    }

    /** Current simulation time in cycles. */
    Cycles now() const { return now_; }

    /** Number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** True when no events remain. */
    bool empty() const { return pending() == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return inWheel + far.size(); }

    /** Schedule @p p at absolute time @p when (>= now). */
    void
    schedule(Cycles when, const Payload &p)
    {
        sn_assert(when >= now_, "scheduling into the past (%llu < %llu)",
                  static_cast<unsigned long long>(when.value()),
                  static_cast<unsigned long long>(now_.value()));
        std::uint64_t seq = nextSeq++;
        if ((when - now_).value() < wheelSpan)
            pushBucket(when, p);
        else
            scheduleFar(when, seq, p);
    }

    /** Schedule @p p @p delta cycles from now. */
    void
    scheduleAfter(Cycles delta, const Payload &p)
    {
        schedule(now_ + delta, p);
    }

    /**
     * Execute exactly one event, if any: advance now() to it and
     * call @p handle(payload). @return true if one ran.
     */
    template <typename Handler>
    bool
    step(Handler &&handle)
    {
        if (empty())
            return false;
        advanceTo(nextTime());
        Payload p = popFront();
        ++executed_;
        handle(p);
        return true;
    }

    /**
     * Run until the queue drains or time exceeds @p limit.
     * @return the number of events executed by this call.
     */
    template <typename Handler>
    std::uint64_t
    run(Handler &&handle, Cycles limit = Cycles::max())
    {
        std::uint64_t count = 0;
        while (!empty()) {
            Cycles t = nextTime();
            if (t > limit)
                break;
            advanceTo(t);
            Payload p = popFront();
            ++executed_;
            ++count;
            handle(p);
        }
        // With an explicit finite limit, time advances to the limit
        // even if the queue drains first (so fixed-horizon windows
        // line up).
        if (empty() && limit != Cycles::max() && now_ < limit)
            now_ = limit;
        return count;
    }

  private:
    static constexpr std::uint32_t nil = ~0u;
    static constexpr std::uint64_t slotMask = wheelSpan - 1;
    static constexpr std::size_t words = wheelSpan / 64;
    static_assert(words <= 64, "the summary word covers the bitmap");

    struct Node
    {
        Payload payload;
        std::uint32_t next;
    };

    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    struct FarEvent
    {
        Cycles when;
        std::uint64_t seq;
        Payload payload;
    };

    /** Heap order: the root is the smallest (when, seq). */
    static bool
    later(const FarEvent &a, const FarEvent &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /** Earliest pending time; the queue must not be empty. Wheel
     *  events all lie in [now, now + span), far ones beyond it. */
    Cycles
    nextTime() const
    {
        if (inWheel == 0)
            return far.front().when;
        std::uint64_t from = now_.value() & slotMask;
        return now_ + Cycles((firstSlotFrom(from) - from) & slotMask);
    }

    /** First non-empty bucket at or after @p slot, circularly. */
    std::uint64_t
    firstSlotFrom(std::uint64_t slot) const
    {
        std::uint64_t w = slot >> 6;
        std::uint64_t word = bits[w] & (~std::uint64_t(0) << (slot & 63));
        if (word)
            return (w << 6) | std::countr_zero(word);
        std::uint64_t above =
            w + 1 < 64 ? summary & (~std::uint64_t(0) << (w + 1)) : 0;
        // Wrapped: the lowest non-empty word holds the earliest slot
        // (word w's bits at or above slot are known empty here).
        w = static_cast<std::uint64_t>(
            std::countr_zero(above ? above : summary));
        return (w << 6) | std::countr_zero(bits[w]);
    }

    /** Move now() to @p t and pull far events now within a span. */
    void
    advanceTo(Cycles t)
    {
        now_ = t;
        while (!far.empty() &&
               (far.front().when - now_).value() < wheelSpan)
            pullFar();
    }

    void
    pushBucket(Cycles when, const Payload &p)
    {
        std::uint32_t n = freeList;
        if (n != nil)
            freeList = slab[n].next;
        else
            n = growSlab();
        slab[n] = Node{p, nil};
        std::uint64_t slot = when.value() & slotMask;
        Bucket &b = wheel[slot];
        if (b.tail == nil) {
            b.head = n;
            bits[slot >> 6] |= std::uint64_t(1) << (slot & 63);
            summary |= std::uint64_t(1) << (slot >> 6);
        } else {
            slab[b.tail].next = n;
        }
        b.tail = n;
        ++inWheel;
    }

    /** Pop the head of now()'s bucket, which must be non-empty. */
    Payload
    popFront()
    {
        std::uint64_t slot = now_.value() & slotMask;
        Bucket &b = wheel[slot];
        std::uint32_t n = b.head;
        Payload p = slab[n].payload;
        b.head = slab[n].next;
        if (b.head == nil) {
            b.tail = nil;
            std::uint64_t &word = bits[slot >> 6];
            word &= ~(std::uint64_t(1) << (slot & 63));
            if (!word)
                summary &= ~(std::uint64_t(1) << (slot >> 6));
        }
        slab[n].next = freeList;
        freeList = n;
        --inWheel;
        return p;
    }

    // lint: cold-path slab growth; amortized, capacity reserved up front
    STARNUMA_COLD_PATH std::uint32_t
    growSlab()
    {
        slab.push_back(Node{});
        return static_cast<std::uint32_t>(slab.size() - 1);
    }

    // lint: cold-path far events (pacer, migration streams) are rare
    STARNUMA_COLD_PATH void
    scheduleFar(Cycles when, std::uint64_t seq, const Payload &p)
    {
        far.push_back(FarEvent{when, seq, p});
        std::push_heap(far.begin(), far.end(), later);
    }

    // lint: cold-path one call per far event, when it comes in range
    STARNUMA_COLD_PATH void
    pullFar()
    {
        std::pop_heap(far.begin(), far.end(), later);
        pushBucket(far.back().when, far.back().payload);
        far.pop_back();
    }

    std::vector<Bucket> wheel;
    std::array<std::uint64_t, words> bits{};
    std::uint64_t summary = 0;
    std::vector<Node> slab;
    std::uint32_t freeList = nil;
    std::size_t inWheel = 0;
    std::vector<FarEvent> far; ///< binary min-heap on (when, seq)
    Cycles now_;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed_ = 0;
};

} // namespace starnuma

#endif // STARNUMA_SIM_EVENT_QUEUE_HH
