/**
 * @file
 * Property-based tests: invariants that must hold across swept
 * parameter spaces — event-queue ordering under random schedules,
 * cache inclusion/eviction algebra, tracker saturation, migration
 * engine conservation (no page lost, pool capacity never exceeded),
 * sharing-profile normalization, trace determinism, and the flat
 * page/region tables against std::map references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "core/migration.hh"
#include "core/page_stats.hh"
#include "core/region_tracker.hh"
#include "core/tlb_annex.hh"
#include "mem/cache.hh"
#include "mem/page_map.hh"
#include "mem/dram.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "topology/topology.hh"
#include "trace/profile.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace
{

// --- EventQueue: random schedules execute in (when, seq) order ---

class EventQueueOrder : public ::testing::TestWithParam<int>
{
};

TEST_P(EventQueueOrder, RandomScheduleExecutesInTimeOrder)
{
    Rng rng(GetParam());
    EventQueue<int> q;
    std::vector<Cycles> seen;
    // Seed events (id 0); some events schedule more events (id 1).
    for (int i = 0; i < 200; ++i)
        q.schedule(Cycles(rng.range32(10000)), 0);
    q.run([&](int id) {
        seen.push_back(q.now());
        if (id == 0 && rng.chance(0.3))
            q.scheduleAfter(Cycles(1 + rng.range32(100)), 1);
    });
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_GE(seen.size(), 200u);
}

/**
 * The order the calendar queue must reproduce: a binary heap on
 * (when, seq), as the timing simulation used before the wheel.
 */
class ReferenceQueue
{
  public:
    Cycles now() const { return now_; }
    bool empty() const { return heap.empty(); }
    std::size_t pending() const { return heap.size(); }

    void
    schedule(Cycles when, int id)
    {
        ASSERT_GE(when, now_);
        heap.push(Ev{when, seq++, id});
    }

    template <typename Fn>
    bool
    step(Fn &&fn)
    {
        if (heap.empty())
            return false;
        Ev ev = heap.top();
        heap.pop();
        now_ = ev.when;
        fn(ev.id);
        return true;
    }

    template <typename Fn>
    std::uint64_t
    run(Fn &&fn, Cycles limit = Cycles::max())
    {
        std::uint64_t n = 0;
        while (!heap.empty() && heap.top().when <= limit) {
            step(fn);
            ++n;
        }
        if (heap.empty() && limit != Cycles::max() && now_ < limit)
            now_ = limit;
        return n;
    }

  private:
    struct Ev
    {
        Cycles when;
        std::uint64_t seq;
        int id;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Ev, std::vector<Ev>, Later> heap;
    Cycles now_;
    std::uint64_t seq = 0;
};

/**
 * Drive @p q through a seeded random schedule of step() and
 * run(limit) calls whose handlers schedule more events. Returns a
 * log of every executed id with its time, and of now(), pending()
 * and the return value after every call, so two queues given the
 * same seed log identically iff they execute identically.
 */
template <typename Queue>
std::vector<std::uint64_t>
driveRandomSchedule(Queue &q, int seed)
{
    const auto span =
        static_cast<std::uint32_t>(EventQueue<int>::wheelSpan);
    Rng rng(seed);
    std::vector<std::uint64_t> log;
    std::vector<Cycles> used; // earlier targets, to collide with
    int next_id = 0;
    auto pick = [&]() -> Cycles {
        Cycles now = q.now();
        switch (rng.range32(8)) {
          case 0: // exactly now()
            return now;
          case 1: // same-cycle ties just ahead
            return now + Cycles(rng.range32(4));
          case 2: // anywhere on the wheel
            return now + Cycles(rng.range32(span));
          case 3: // straddling the wheel's edge
            return now + Cycles(span - 2 + rng.range32(4));
          case 4: // overflow heap, up to four spans out
            return now + Cycles(span + rng.range32(4 * span));
          case 5: { // a cycle already targeted: far events that
                    // later share it with direct inserts
            Cycles t = used[rng.range32(
                static_cast<std::uint32_t>(used.size()))];
            return t >= now ? t : now;
          }
          case 6: // occasionally a long idle gap
            return now + Cycles(rng.chance(0.02)
                                    ? span * (20 + rng.range32(80))
                                    : 1);
          default:
            return now + Cycles(1 + rng.range32(64));
        }
    };
    auto schedule = [&]() {
        Cycles when = used.empty() ? q.now() : pick();
        used.push_back(when);
        q.schedule(when, next_id++);
    };
    auto handle = [&](int id) {
        log.push_back(static_cast<std::uint64_t>(id));
        log.push_back(q.now().value());
        if (next_id < 20000)
            for (std::uint32_t k = rng.range32(4); k > 0; --k)
                schedule();
    };
    for (int i = 0; i < 64; ++i)
        schedule();
    while (!q.empty()) {
        if (rng.chance(0.2)) {
            Cycles limit = q.now() + Cycles(rng.range32(2 * span));
            log.push_back(q.run(handle, limit));
        } else {
            log.push_back(q.step(handle) ? 1 : 0);
        }
        log.push_back(q.now().value());
        log.push_back(q.pending());
    }
    log.push_back(q.run(handle, q.now() + Cycles(5)));
    log.push_back(q.now().value());
    return log;
}

TEST_P(EventQueueOrder, MatchesReferenceHeapOrder)
{
    EventQueue<int> q;
    ReferenceQueue ref;
    std::vector<std::uint64_t> got = driveRandomSchedule(q, GetParam());
    std::vector<std::uint64_t> want =
        driveRandomSchedule(ref, GetParam());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "first divergence at log entry "
                                   << i;
    // The schedule really exercised the wheel's edges: many events,
    // time wrapped the wheel many times over.
    EXPECT_GT(q.executed(), 10000u);
    EXPECT_GT(q.now().value(), 50 * EventQueue<int>::wheelSpan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrder,
                         ::testing::Values(1, 7, 42, 1234));

// --- Cache: contains() agrees with access() history ---

class CacheAlgebra : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheAlgebra, HitIffContained)
{
    Rng rng(GetParam());
    mem::Cache cache({8192, 4});
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.range32(1 << 16) & ~7u;
        bool contained = cache.contains(addr);
        auto r = cache.access(addr, rng.chance(0.3));
        EXPECT_EQ(r.hit, contained);
        EXPECT_TRUE(cache.contains(addr));
        if (r.evicted) {
            EXPECT_FALSE(cache.contains(r.victim));
            EXPECT_NE(blockAddr(addr), r.victim);
        }
    }
    EXPECT_EQ(cache.hits() + cache.misses(), 5000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheAlgebra,
                         ::testing::Values(3, 9, 27));

// --- RegionTracker: counters saturate, sharers monotone ---

class TrackerSaturation : public ::testing::TestWithParam<int>
{
};

TEST_P(TrackerSaturation, CounterNeverExceedsWidth)
{
    int bits = GetParam();
    core::RegionTracker t(bits, 16, 16 * 1024);
    Rng rng(5);
    std::uint32_t cap =
        bits == 0 ? 0
                  : static_cast<std::uint32_t>((1ULL << bits) - 1);
    for (int i = 0; i < 20000; ++i)
        t.record(rng.range32(1 << 20),
                 static_cast<NodeId>(rng.range32(16)),
                 1 + rng.range32(50));
    t.scanAndReset([&](core::RegionId, const core::TrackerEntry &e) {
        EXPECT_LE(e.accesses, cap);
        EXPECT_GE(e.sharerCount(), 1);
        EXPECT_LE(e.sharerCount(), 16);
    });
}

INSTANTIATE_TEST_SUITE_P(Widths, TrackerSaturation,
                         ::testing::Values(0, 1, 4, 8, 16, 24));

// --- MigrationEngine: conservation + capacity invariants ---

class MigrationInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(MigrationInvariants, PagesConservedAndPoolBounded)
{
    std::uint64_t seed = GetParam();
    constexpr Addr region = 16 * 1024;
    constexpr int ppr = region / pageBytes;
    core::RegionTracker tracker(16, 16, region);
    mem::PageMap pages(17);
    core::MigrationConfig cfg;
    cfg.migrationLimitPages = 64;
    core::MigrationEngine engine(cfg, 16, region, seed);

    Rng rng(seed);
    constexpr int n_regions = 64;
    // Map every region somewhere.
    for (core::RegionId r = 0; r < n_regions; ++r)
        for (int p = 0; p < ppr; ++p)
            pages.setHome(PageNum(r * ppr + p),
                          static_cast<NodeId>(rng.range32(16)));
    std::uint64_t total = pages.totalPages();
    std::uint64_t pool_cap = 10 * ppr;

    for (int phase = 1; phase <= 8; ++phase) {
        // Random heat.
        for (int i = 0; i < 2000; ++i)
            tracker.record(
                rng.range32(n_regions * static_cast<int>(region)),
                static_cast<NodeId>(rng.range32(16)),
                1 + rng.range32(20));
        auto plan =
            engine.decidePhase(tracker, pages, pool_cap, phase);
        // Conservation: no page appears or disappears.
        EXPECT_EQ(pages.totalPages(), total);
        std::uint64_t sum = 0;
        for (NodeId n = 0; n < 17; ++n)
            sum += pages.pagesAt(n);
        EXPECT_EQ(sum, total);
        // Pool capacity is never exceeded.
        EXPECT_LE(pages.pagesAt(16), pool_cap);
        // Per-phase page budget respected.
        EXPECT_LE(plan.size() * ppr,
                  cfg.migrationLimitPages + ppr);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationInvariants,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- TLB annex: flush conservation across geometries ---

class TlbGeometry
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(TlbGeometry, EveryAccessEventuallyCounted)
{
    auto [entries, ways] = GetParam();
    core::RegionTracker tracker(24, 16, 16 * 1024);
    core::TlbAnnex tlb({entries, ways}, tracker, 4);
    Rng rng(11);
    constexpr int accesses = 8000;
    for (int i = 0; i < accesses; ++i)
        tlb.recordAccess(rng.range32(1 << 22));
    tlb.flushAll();
    // Sum of all tracker counters equals the access count (24-bit
    // counters cannot saturate at this volume).
    std::uint64_t sum = 0;
    tracker.scanAndReset(
        [&](core::RegionId, const core::TrackerEntry &e) {
            sum += e.accesses;
        });
    EXPECT_EQ(sum, static_cast<std::uint64_t>(accesses));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Values(std::pair<int, int>{16, 1},
                      std::pair<int, int>{64, 4},
                      std::pair<int, int>{128, 8},
                      std::pair<int, int>{1024, 8}));

// --- TLB residency: the DiDi shootdown targets (§III-D3) ---

/**
 * Step B shoots a migrated page down in every core whose annex holds
 * it, so TLB residency is the DiDi directory's holder set. A
 * reference of per-set LRU lists predicts every shootdown() result
 * and the distinct resident page count, for T16 and T0 annexes,
 * under runs, conflict evictions, markers and flushes.
 */
class TlbResidency
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(TlbResidency, ShootdownsMatchReference)
{
    auto [seed, t0] = GetParam();
    Rng rng(seed);
    constexpr int cores = 5;
    constexpr int sets = 4, ways = 4;
    core::RegionTracker tracker(t0 ? 0 : 16, 4, 16 * 1024);
    std::vector<core::TlbAnnex> tlbs;
    for (int c = 0; c < cores; ++c)
        tlbs.emplace_back(core::TlbConfig{sets * ways, ways}, tracker,
                          c % 4);
    // ref[core][set]: resident pages, most recently used first.
    std::vector<std::vector<std::deque<std::uint64_t>>> ref(
        cores, std::vector<std::deque<std::uint64_t>>(sets));
    auto drop = [&](int c, std::uint64_t page) {
        auto &set = ref[c][page % sets];
        auto it = std::find(set.begin(), set.end(), page);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    };
    auto distinct = [&] {
        std::set<std::uint64_t> pages;
        for (const auto &core_sets : ref)
            for (const auto &set : core_sets)
                pages.insert(set.begin(), set.end());
        return pages.size();
    };
    for (int i = 0; i < 6000; ++i) {
        std::uint64_t page = 1000 + rng.range32(48);
        int c = static_cast<int>(rng.range32(cores));
        switch (rng.range32(10)) {
          case 0: // a migrated page: every core, ascending
            for (int t = 0; t < cores; ++t) {
                bool held = drop(t, page);
                EXPECT_EQ(tlbs[t].shootdown(PageNum(page)), held);
            }
            break;
          case 1:
            EXPECT_EQ(tlbs[c].shootdown(PageNum(page)), drop(c, page));
            break;
          case 2:
            tlbs[c].setMarkers();
            break;
          case 3:
            tlbs[c].flushAll();
            break;
          default: {
            std::uint64_t run = 1 + rng.range32(3);
            tlbs[c].recordAccessRun(
                page * pageBytes + rng.range32(pageBytes), run);
            drop(c, page);
            auto &set = ref[c][page % sets];
            set.push_front(page);
            if (set.size() > static_cast<std::size_t>(ways))
                set.pop_back();
          }
        }
        ASSERT_EQ(core::TlbAnnex::residentPages(tlbs), distinct());
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsT0, TlbResidency,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Bool()));

// --- DRAM: completion times are sane across bank counts ---

class DramBanks : public ::testing::TestWithParam<int>
{
};

TEST_P(DramBanks, CompletionNeverBeforeUnloaded)
{
    mem::DramConfig cfg;
    cfg.banks = GetParam();
    mem::DramChannel ch(cfg);
    Rng rng(13);
    Cycles now;
    for (int i = 0; i < 2000; ++i) {
        now += Cycles(rng.range32(20));
        Cycles done = ch.access(now, rng.range32(1 << 24));
        EXPECT_GE(done, now + ch.unloadedLatency());
    }
}

INSTANTIATE_TEST_SUITE_P(Banks, DramBanks,
                         ::testing::Values(1, 4, 16, 32, 64));

// --- Topology: unloaded latency is a metric-like quantity ---

TEST(TopologyProperty, TriangleInequalityOverSockets)
{
    // Socket-to-socket routes are minimal over the coherent
    // interconnect: no socket detour beats the direct route.
    topology::Topology t(topology::SystemConfig::starnuma16());
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        NodeId a = rng.range32(16);
        NodeId b = rng.range32(16);
        NodeId c = rng.range32(16);
        EXPECT_LE(t.unloadedOneWay(a, b),
                  t.unloadedOneWay(a, c) + t.unloadedOneWay(c, b));
    }
}

TEST(TopologyProperty, PoolIsALatencyShortcutHardwareCannotTake)
{
    // The paper's §III-C observation in topological form: bouncing
    // through the pool (2 x 50 ns) is faster than a direct
    // inter-chassis crossing (140 ns) — but coherent socket-to-
    // socket routes never pass through the pool; only the 4-hop
    // coherence path exploits the shortcut.
    topology::Topology t(topology::SystemConfig::starnuma16());
    NodeId pool = t.poolNode();
    EXPECT_LT(t.unloadedOneWay(0, pool) +
                  t.unloadedOneWay(pool, 15),
              t.unloadedOneWay(0, 15));
    for (const auto &hop : t.route(0, 15).hops)
        EXPECT_NE(t.links()[hop.link].type(),
                  topology::LinkType::CXL);
}

TEST(TopologyProperty, ContendedNeverFasterThanUnloaded)
{
    topology::Topology t(topology::SystemConfig::starnuma16());
    Rng rng(19);
    Cycles now;
    for (int i = 0; i < 2000; ++i) {
        now += Cycles(rng.range32(5));
        NodeId src = rng.range32(16);
        NodeId dst = rng.range32(t.nodes());
        if (src == dst)
            continue;
        Cycles arrival =
            t.send(src, dst, now, topology::dataBytes);
        EXPECT_GE(arrival, now + t.unloadedOneWay(src, dst));
    }
}

// --- SharingProfile: normalization ---

TEST(ProfileProperty, FractionsSumToOne)
{
    SimScale s;
    s.sockets = 4;
    s.socketsPerChassis = 2;
    s.coresPerSocket = 2;
    s.phases = 1;
    s.phaseInstructions = 20000;
    auto t = workloads::makeWorkload("tpcc")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    double pages = 0, accesses = 0;
    for (int d = 1; d <= s.sockets; ++d) {
        pages += p.pageFraction(d);
        accesses += p.accessFraction(d);
    }
    EXPECT_NEAR(pages, 1.0, 1e-9);
    EXPECT_NEAR(accesses, 1.0, 1e-9);
}

// --- Workload determinism: identical seeds, identical traces ---

class WorkloadDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDeterminism, SameSeedSameTrace)
{
    SimScale s;
    s.sockets = 4;
    s.socketsPerChassis = 2;
    s.coresPerSocket = 2;
    s.phases = 1;
    s.phaseInstructions = 15000;
    auto a = workloads::makeWorkload(GetParam(), 7)->capture(s);
    auto b = workloads::makeWorkload(GetParam(), 7)->capture(s);
    ASSERT_EQ(a.totalRecords(), b.totalRecords());
    for (int t = 0; t < a.threads; ++t) {
        ASSERT_EQ(a.perThread[t].size(), b.perThread[t].size());
        for (std::size_t i = 0; i < a.perThread[t].size(); ++i) {
            EXPECT_EQ(a.perThread[t][i].instr,
                      b.perThread[t][i].instr);
            EXPECT_EQ(a.perThread[t][i].vaddr(),
                      b.perThread[t][i].vaddr());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDeterminism,
                         ::testing::Values("bfs", "masstree",
                                           "tpcc", "poa"));

// --- Flat tables (sim/dense_table.hh): growth matches a std::map ---

/**
 * Drives the three page- and region-indexed tables with random keys in
 * random order against std::map references, with and without a
 * reserved range. The keys fall inside the range a run may reserve,
 * below it (down to key 0) and far above it, so tables both with and
 * without a reservation grow in both directions.
 */
class DenseTables
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
  protected:
    static constexpr std::uint64_t base = 4096;
    static constexpr std::uint64_t span = 256;

    /** A pool of keys the operations draw from, so keys repeat. */
    static std::vector<std::uint64_t>
    keyPool(Rng &rng)
    {
        std::vector<std::uint64_t> keys;
        for (int i = 0; i < 300; ++i) {
            switch (rng.range32(4)) {
              case 0: // below the reserved range
                keys.push_back(base - 1 - rng.range32(base));
                break;
              case 1: // far above it
                keys.push_back(base + span + rng.range32(1 << 16));
                break;
              default:
                keys.push_back(base + rng.range32(span));
            }
        }
        return keys;
    }

    static std::uint64_t
    pick(Rng &rng, const std::vector<std::uint64_t> &keys)
    {
        return keys[rng.range32(static_cast<std::uint32_t>(keys.size()))];
    }
};

TEST_P(DenseTables, PageMapMatchesReference)
{
    auto [seed, reserve] = GetParam();
    Rng rng(seed);
    const std::vector<std::uint64_t> keys = keyPool(rng);
    constexpr int nodes = 5;
    mem::PageMap pm(nodes);
    if (reserve)
        pm.preallocate(PageNum(base), span);
    std::map<std::uint64_t, NodeId> home;
    std::vector<std::uint64_t> order;
    std::uint64_t first_touches = 0;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t k = pick(rng, keys);
        auto node = static_cast<NodeId>(rng.range32(nodes));
        bool mapped = home.count(k) > 0;
        switch (rng.range32(3)) {
          case 0:
            if (!mapped) {
                home[k] = node;
                order.push_back(k);
                ++first_touches;
            }
            ASSERT_EQ(pm.touch(PageNum(k), node), home[k]);
            break;
          case 1:
            if (!mapped)
                order.push_back(k);
            home[k] = node;
            pm.setHome(PageNum(k), node);
            break;
          default:
            ASSERT_EQ(pm.home(PageNum(k)),
                      mapped ? home[k] : mem::invalidNode);
        }
    }
    EXPECT_EQ(pm.totalPages(), home.size());
    EXPECT_EQ(pm.firstTouchPages(), first_touches);
    for (NodeId n = 0; n < nodes; ++n) {
        std::uint64_t want = 0;
        for (const auto &[page, h] : home)
            want += (h == n);
        EXPECT_EQ(pm.pagesAt(n), want);
    }
    std::vector<std::uint64_t> seen;
    pm.forEach([&](PageNum page, NodeId h) {
        seen.push_back(page.value());
        EXPECT_EQ(h, home[page.value()]);
    });
    EXPECT_EQ(seen, order);
}

TEST_P(DenseTables, RegionTrackerMatchesReference)
{
    auto [seed, reserve] = GetParam();
    Rng rng(seed);
    const std::vector<std::uint64_t> keys = keyPool(rng);
    constexpr Addr region_bytes = 16 * 1024;
    constexpr int sockets = 8;
    constexpr std::uint32_t counter_max = 15; // T_4
    core::RegionTracker t(4, sockets, region_bytes);
    if (reserve)
        t.preallocate(base, span);
    std::map<core::RegionId, core::TrackerEntry> ref;
    std::vector<core::RegionId> order;
    auto scan = [&] {
        std::vector<core::RegionId> seen;
        t.scanAndReset(
            [&](core::RegionId region, const core::TrackerEntry &e) {
                seen.push_back(region);
                EXPECT_EQ(e.sharerMask, ref[region].sharerMask);
                EXPECT_EQ(e.accesses, ref[region].accesses);
            });
        EXPECT_EQ(seen, order);
        ref.clear();
        order.clear();
        EXPECT_EQ(t.touchedRegions(), 0u);
    };
    for (int i = 0; i < 4000; ++i) {
        core::RegionId region = pick(rng, keys);
        if (rng.range32(2)) {
            auto socket = static_cast<NodeId>(rng.range32(sockets));
            std::uint32_t count = rng.range32(10);
            if (!ref.count(region))
                order.push_back(region);
            core::TrackerEntry &e = ref[region];
            e.sharerMask |= 1ULL << socket;
            e.accesses = std::min(e.accesses + count, counter_max);
            t.record(region * region_bytes +
                         rng.range32(region_bytes),
                     socket, count);
        } else {
            const core::TrackerEntry &e = t.entry(region);
            auto it = ref.find(region);
            EXPECT_EQ(e.sharerMask,
                      it == ref.end() ? 0 : it->second.sharerMask);
            EXPECT_EQ(e.accesses,
                      it == ref.end() ? 0 : it->second.accesses);
        }
        ASSERT_EQ(t.touchedRegions(), ref.size());
        if (i % 1000 == 999)
            scan();
    }
}

TEST_P(DenseTables, PageAccessStatsMatchesReference)
{
    auto [seed, reserve] = GetParam();
    Rng rng(seed);
    const std::vector<std::uint64_t> keys = keyPool(rng);
    constexpr int sockets = 6;
    core::PageAccessStats st(sockets);
    if (reserve)
        st.preallocate(PageNum(base), span);
    std::map<std::uint64_t, std::array<std::uint32_t, sockets>> ref;
    std::vector<std::uint64_t> order;
    auto check = [&](std::uint64_t page) {
        auto it = ref.find(page);
        std::uint64_t total = 0;
        int sharers = 0;
        NodeId majority = -1;
        if (it != ref.end()) {
            NodeId best = 0;
            for (int s = 0; s < sockets; ++s) {
                total += it->second[s];
                sharers += it->second[s] > 0;
                if (it->second[s] > it->second[best])
                    best = s;
            }
            majority = it->second[best] > 0 ? best : -1;
        }
        EXPECT_EQ(st.totalAccesses(PageNum(page)), total);
        EXPECT_EQ(st.sharers(PageNum(page)), sharers);
        EXPECT_EQ(st.majoritySocket(PageNum(page)), majority);
    };
    auto visit = [&] {
        std::vector<std::uint64_t> seen;
        st.forEach([&](PageNum page, const std::uint32_t *counts) {
            seen.push_back(page.value());
            for (int s = 0; s < sockets; ++s)
                EXPECT_EQ(counts[s], ref[page.value()][s]);
        });
        EXPECT_EQ(seen, order);
    };
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t page = pick(rng, keys);
        if (rng.range32(2)) {
            auto socket = static_cast<NodeId>(rng.range32(sockets));
            std::uint32_t count = 1 + rng.range32(5);
            if (!ref.count(page)) {
                order.push_back(page);
                ref[page] = {};
            }
            ref[page][socket] += count;
            st.record(PageNum(page), socket, count);
        } else {
            check(page);
        }
        if (i % 1000 == 999) {
            visit();
            st.reset();
            ref.clear();
            order.clear();
        }
    }
    visit();
}

INSTANTIATE_TEST_SUITE_P(
    SeedsReserved, DenseTables,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Bool()));

// --- Arena (sim/arena.hh): the lifetime rules of DESIGN.md §12 ---

class ArenaProperty : public ::testing::TestWithParam<int>
{
};

/**
 * Random allocation sequences: every returned pointer respects its
 * requested alignment, lies inside the buffer, and never overlaps a
 * previous live allocation (checked by filling each block with a
 * distinct byte and re-verifying all blocks at the end).
 */
TEST_P(ArenaProperty, AlignedDisjointInBoundsAllocations)
{
    Rng rng(GetParam());
    const std::size_t cap = 1 << 16;
    Arena arena(cap);
    struct Block
    {
        unsigned char *p;
        std::size_t bytes;
        unsigned char fill;
    };
    std::vector<Block> blocks;
    for (int i = 0; i < 400; ++i) {
        std::size_t bytes = rng.range32(300);
        std::size_t align = std::size_t(1) << rng.range32(7);
        auto *p = static_cast<unsigned char *>(
            arena.allocate(bytes, align));
        if (!p)
            break; // exhausted; covered below
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
        auto fill = static_cast<unsigned char>(i);
        std::memset(p, fill, bytes);
        blocks.push_back({p, bytes, fill});
        EXPECT_LE(arena.used(), arena.capacity());
        EXPECT_EQ(arena.remaining(),
                  arena.capacity() - arena.used());
    }
    // No allocation clobbered an earlier one.
    for (const Block &b : blocks)
        for (std::size_t i = 0; i < b.bytes; ++i)
            ASSERT_EQ(b.p[i], b.fill);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

/** Exhaustion is reported via nullptr + a counter — never by
 *  writing past the buffer or wrapping the bump offset. */
TEST(ArenaProperty, ExhaustionReportedNotOverflowed)
{
    Arena arena(256);
    void *a = arena.allocate(200, 1);
    ASSERT_NE(a, nullptr);
    std::memset(a, 0xab, 200);
    std::size_t used_before = arena.used();

    EXPECT_EQ(arena.allocate(100, 1), nullptr);
    EXPECT_EQ(arena.exhaustions(), 1u);
    EXPECT_EQ(arena.used(), used_before); // failed alloc is a no-op

    // Pathological sizes must not wrap the offset arithmetic.
    EXPECT_EQ(arena.allocate(~std::size_t(0), 1), nullptr);
    EXPECT_EQ(arena.allocate(~std::size_t(0) - 64, 128), nullptr);
    EXPECT_EQ(arena.allocArray<std::uint64_t>(~std::size_t(0) / 4),
              nullptr);
    EXPECT_EQ(arena.exhaustions(), 4u);

    // The earlier allocation survived every refused request.
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(static_cast<unsigned char *>(a)[i], 0xab);

    // What still fits is still granted.
    EXPECT_NE(arena.allocate(arena.remaining(), 1), nullptr);
    EXPECT_EQ(arena.remaining(), 0u);
}

/** reset() restores the full capacity and reuses the same buffer. */
TEST(ArenaProperty, ResetRestoresFullCapacity)
{
    const std::size_t cap = 4096;
    Arena arena(cap);
    for (int cycle = 0; cycle < 10; ++cycle) {
        void *whole = arena.allocate(cap, 1);
        ASSERT_NE(whole, nullptr);
        EXPECT_EQ(arena.used(), cap);
        EXPECT_EQ(arena.allocate(1, 1), nullptr);
        arena.reset();
        EXPECT_EQ(arena.used(), 0u);
        EXPECT_EQ(arena.remaining(), cap);
    }
    // Exhaustion count is lifetime, not per-cycle.
    EXPECT_EQ(arena.exhaustions(), 10u);
}

/** allocArray zero-initializes even over recycled dirty memory. */
TEST(ArenaProperty, AllocArrayZeroesRecycledMemory)
{
    Arena arena(1 << 12);
    void *dirty = arena.allocate(1 << 12, 1);
    ASSERT_NE(dirty, nullptr);
    std::memset(dirty, 0xff, 1 << 12);
    arena.reset();

    auto *counters = arena.allocArray<std::uint32_t>(256);
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(counters) %
                  alignof(std::uint32_t),
              0u);
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(counters[i], 0u);
}

} // anonymous namespace
} // namespace starnuma
