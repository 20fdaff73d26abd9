#include "driver/timing_sim.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/replication.hh"
#include "core/shootdown.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/dram.hh"
#include "mem/page_map.hh"
#include "sim/annotations.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/timeseries.hh"
#include "sim/obs/trace_session.hh"
#include "sim/parallel.hh"
#include "sim/stats.hh"
#include "topology/topology.hh"

namespace starnuma
{
namespace driver
{

namespace
{

/** Cycles between light-core pacing updates. */
constexpr Cycles pacerPeriod{20000};

// Core model (Table I, scaled per Table II).

/** Base CPI of non-stalled instructions (4-wide, with L1/L2 effects
 *  folded in since the trace is filter-missing). */
constexpr double baseCpi = 0.5;

/** Reorder-buffer reach in instructions. */
constexpr std::uint64_t robEntries = 256;

/** Maximum outstanding LLC misses per core. */
constexpr std::uint32_t mshrs = 8;
static_assert(mshrs > 0, "cores need at least one MSHR");

/** Socket-LLC hit latency (30 cycles, Table I). */
constexpr Cycles llcHitLatency{30};

/**
 * LLC capacity per core. Table I specifies 2 MB/core; the scaled-down
 * timing windows are far too short to ever fill that, so the LLC is
 * scaled with the window the same way Table II scales bandwidth with
 * the core count.
 */
constexpr Addr llcBytesPerCore = 512 * 1024;

/** Every Nth miss issues a tracker-metadata update write (§IV-C:
 *  "we model the additional memory traffic required for tracker
 *  updates"); approximates the PTW's annex flush rate. */
constexpr std::uint64_t metadataWritePeriod = 32;

/** Page data is streamed in chunks of this many blocks. */
constexpr int migrationChunkBlocks = 4;

/** Wire bytes of one migration chunk (8-byte header per block). */
constexpr Addr migrationChunkBytes =
    migrationChunkBlocks * (blockBytes + 8);

/** Stream/counter names per topology::LinkType index. */
constexpr const char *linkTypeNames[3] = {"upi", "numalink", "cxl"};

/** Zero-padded snapshot prefix of one phase ("phase03."). */
std::string
phasePrefix(int phase)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "phase%02d.", phase);
    return buf;
}

/** What PhaseSim::dispatch does with an event (DESIGN.md §17). */
enum class EventKind : std::uint8_t
{
    Issue,          ///< core idx issues its next trace record
    MissHop,        ///< miss idx reached its next hop
    MissResume,     ///< miss idx's page finished migrating
    Writeback,      ///< dirty victim arg reached home 'from'
    Migration,      ///< idx pages from page arg move 'from' -> 'to'
    MigrationChunk, ///< one chunk of page arg, 'from' -> 'to'
    Pace,           ///< light-core pacing update
};

/** A scheduled event: plain data, no callable. */
struct Event
{
    EventKind kind;
    bool last = false; ///< MigrationChunk: the page's final chunk
    NodeId from = 0;
    NodeId to = 0;
    std::uint32_t idx = 0;
    std::uint64_t arg = 0;
};

/** One leg of a miss's path through the machine (Fig 4). */
enum class Leg : std::uint8_t
{
    Ctrl, ///< request/forward message to the next route node
    Data, ///< data block to the next route node
    Dram, ///< memory access at the current route node
    Done, ///< arrived back at the requester
};

/** The legs of each AccessType's path, in order. The route nodes
 *  they walk are R -> H -> R for Local..Pool (Local never leaves
 *  R), R -> H -> O -> R for BtSocket (3-hop), and
 *  R -> H(pool) -> O -> H -> R for BtPool (4-hop). */
constexpr Leg legPlan[accessTypes][6] = {
    {Leg::Dram, Leg::Done},                                  // Local
    {Leg::Ctrl, Leg::Dram, Leg::Data, Leg::Done},            // OneHop
    {Leg::Ctrl, Leg::Dram, Leg::Data, Leg::Done},            // TwoHop
    {Leg::Ctrl, Leg::Dram, Leg::Data, Leg::Done},            // Pool
    {Leg::Ctrl, Leg::Dram, Leg::Ctrl, Leg::Data, Leg::Done}, // BtSocket
    {Leg::Ctrl, Leg::Dram, Leg::Ctrl, Leg::Data, Leg::Data,
     Leg::Done}, // BtPool
};

/** One LLC miss in flight, advanced leg by leg. */
struct Miss
{
    std::uint64_t instr;
    Addr block; ///< block-aligned address
    Cycles issued;
    std::uint32_t core;
    bool write;
    bool countStats;
    // Set by routeMiss:
    AccessType type = AccessType::Local;
    std::uint8_t leg = 0; ///< next entry of legPlan[type]
    std::uint8_t at = 0;  ///< route index of the node the miss is at
    std::array<NodeId, 5> route{};
};

/** One MSHR entry of a core: an outstanding miss, oldest first. */
struct Outstanding
{
    std::uint64_t instr;
    bool complete;
};

/**
 * Hardware state of one phase's timing simulation. Every phase gets
 * a fresh machine: caches, directory, link and DRAM queues all start
 * empty, since checkpoints are far apart in time.
 */
struct MachineState
{
    // lint: cold-path one machine per phase
    MachineState(const SystemSetup &setup, const SimScale &scale,
                 const PageSpan &span,
                 const FlatSet<PageNum> &replicated_pages)
        : topo(setup.sys), directory(setup.sys.sockets),
          pages(setup.sys.sockets + (setup.sys.hasPool ? 1 : 0)),
          replicated(replicated_pages)
    {
        mem::CacheConfig llc_cfg{
            static_cast<Addr>(scale.coresPerSocket) * llcBytesPerCore,
            16};
        mem::DramConfig dram_cfg;
        dram_cfg.accessNs = setup.sys.dramNs;
        for (int s = 0; s < setup.sys.sockets; ++s) {
            llcs.emplace_back(llc_cfg);
            mcs.emplace_back(setup.sys.channelsPerSocket, dram_cfg);
        }
        if (setup.sys.hasPool)
            mcs.emplace_back(setup.sys.poolChannels, dram_cfg);
        pages.preallocate(span.lo, span.pages);
    }

    void
    loadPageHomes(const Checkpoint &checkpoint)
    {
        // Rebuilds a map (FlatMap iterates in insertion order).
        for (const auto &[page, home] : checkpoint.pageHome)
            pages.setHome(page, home);
    }

    /** Register the machine's component stats (links, LLCs, DRAM,
     *  directory) into @p r. */
    // lint: cold-path stats export, once per run when observing
    void
    registerStats(obs::Registry &r) const
    {
        topo.registerStats(r, "topo");
        directory.registerStats(r, "directory");
        int sockets = static_cast<int>(llcs.size());
        for (int s = 0; s < sockets; ++s) {
            std::string node = "socket" + std::to_string(s);
            llcs[s].registerStats(r, node + ".llc");
            mcs[s].registerStats(r, node + ".dram");
        }
        if (static_cast<int>(mcs.size()) > sockets)
            mcs[sockets].registerStats(r, "pool.dram");
    }

    topology::Topology topo;
    std::vector<mem::Cache> llcs;
    std::vector<mem::MemoryController> mcs;
    mem::Directory directory;
    mem::PageMap pages;
    FlatMap<PageNum, Cycles> migrating;
    // Mutable copy of the §V-F replication set: a write to a
    // replicated page de-replicates it for the rest of the phase.
    FlatSet<PageNum> replicated;
};

/**
 * One phase's post-warmup statistics and telemetry: everything that
 * outlives the phase's simulation, whose machine and event queue are
 * freed as soon as it has run.
 */
struct PhaseStats
{
    void accumulate(RunMetrics &m) const;
    void registerStats(obs::Registry &r) const;

    std::uint64_t instructions = 0;
    Cycles cycles;
    std::uint64_t llcHits = 0;
    std::uint64_t detailedMisses = 0;
    std::array<std::uint64_t, accessTypes> mix{};
    std::array<stats::Mean, accessTypes> typeLatency;
    stats::Mean latency;
    stats::Mean migStall;
    std::uint64_t shootdownPages = 0;
    std::uint64_t coherence = 0;
    Cycles horizon; ///< simulated cycles the phase covered

    /** Per-epoch telemetry (DESIGN.md §14): link utilization and
     *  DRAM request rate per pacer epoch, sampled on the simulated
     *  clock. The pid-2 trace counter events re-emit these samples,
     *  so the two channels cannot drift. */
    obs::TimeSeries series;
};

/**
 * One phase's event-driven simulation. Every resource (link
 * direction, DRAM bank/bus) is claimed by an event executing at the
 * moment the request actually reaches it, so the fluid queues see
 * arrivals in true time order.
 */
class PhaseSim
{
  public:
    PhaseSim(const SystemSetup &setup, const SimScale &scale,
             const TimingOptions &options,
             const trace::WorkloadTrace &trace,
             const Checkpoint &checkpoint, int phase,
             MachineState &machine, PhaseStats &stats);

    void run();

  private:
    struct CoreState
    {
        NodeId socket = 0;
        bool detailed = false;
        const trace::MemRecord *recs = nullptr; ///< the thread's trace
        std::size_t idx = 0; ///< next record
        std::size_t end = 0;
        std::uint64_t lastInstr = 0;
        Cycles readyTime; ///< compute-pacing issue point
        bool blocked = false; ///< stalled on oldest outstanding
        bool issuePending = false; ///< an issue event is scheduled
        bool done = false;
        Cycles doneCycle;
        Cycles warmupCycle;
        bool warmupCrossed = false;
        Outstanding *mshr = nullptr; ///< mshrs slots, oldest first
        std::uint32_t inFlight = 0;  ///< occupied MSHR slots
    };

    void dispatch(const Event &ev);

    // --- core actors ---
    void scheduleIssue(CoreState &c, Cycles when);
    void issueNext(CoreState &c);
    void retireCompleted(CoreState &c);
    bool frontBlocks(const CoreState &c,
                     std::uint64_t next_instr) const;
    void finishCore(CoreState &c);
    void pace();
    void sampleEpoch();
    bool allDetailedDone() const;

    // --- memory system (asynchronous request path) ---
    /** Start a miss on block address @p block; completion is an
     *  event at 'done'. */
    void startMiss(CoreState &c, Addr block, bool write,
                   std::uint64_t instr, bool count_stats);
    /** Resolve the miss's home and coherence, pick its path. */
    void routeMiss(std::uint32_t slot);
    /** Claim the miss's next leg, or finish it. */
    void stepMiss(std::uint32_t slot);
    void finishMiss(std::uint32_t slot);

    void applyMigration(PageNum first_page, int pages_n, NodeId from,
                        NodeId to);

    /** Claim node @p node's memory controller for block @p a at
     *  @p t. @return when the data is ready. */
    Cycles
    dramAccess(NodeId node, Cycles t, Addr a)
    {
        mem::MemoryController &mc = mcs[node];
        return mc.access(t, a);
    }

    const SystemSetup &setup;
    const SimScale &scale;
    const TimingOptions &options;
    const trace::WorkloadTrace &trace;

    std::uint64_t windowStart;
    std::uint64_t windowEnd;
    std::uint64_t warmupInstr;

    EventQueue<Event> q;
    MachineState &machine;
    topology::Topology &topo;
    std::vector<mem::Cache> &llcs;
    std::vector<mem::MemoryController> &mcs;
    mem::Directory &directory;
    mem::PageMap &pages;
    FlatMap<PageNum, Cycles> &migrating;
    std::vector<CoreState> cores;
    // Misses in flight and the cores' MSHRs: one arena sized for
    // every MSHR of every core, since each miss holds one.
    std::uint32_t mshrSlots;
    Arena arena;
    FixedPool<Miss> misses;
    PhaseStats &st;
    int phase_;
    Cycles onChip;
    double lightCpi;
    std::uint64_t lastPaceInstr = 0;
    Cycles lastPaceCycle;
    std::uint64_t missCount = 0;
    bool stop = false;
    // Telemetry gate, read once when the phase is built.
    bool observed; ///< the run sink records epoch series + counters

    // Simulated-timeline epoch telemetry: the deterministic series
    // is the single source; trace counter events re-emit from it.
    static constexpr obs::TimeSeries::StreamId noStream = ~0u;
    std::array<obs::TimeSeries::StreamId, 3> linkStream{};
    obs::TimeSeries::StreamId dramStream = noStream;
    std::array<std::uint64_t, 3> lastLinkBusy{};
    std::uint64_t lastDramRequests = 0;
    Cycles lastTraceCycle;
};

// lint: cold-path one-time per-phase construction; telemetry
// stream registration happens here, not on the access path
PhaseSim::PhaseSim(const SystemSetup &system_setup,
                   const SimScale &sim_scale,
                   const TimingOptions &timing_options,
                   const trace::WorkloadTrace &workload_trace,
                   const Checkpoint &checkpoint, int phase,
                   MachineState &machine_state,
                   PhaseStats &phase_stats)
    : setup(system_setup), scale(sim_scale),
      options(timing_options), trace(workload_trace), machine(machine_state),
      topo(machine.topo), llcs(machine.llcs), mcs(machine.mcs),
      directory(machine.directory), pages(machine.pages),
      migrating(machine.migrating),
      cores(options.singleSocketLocal ? scale.coresPerSocket
                                      : scale.threads()),
      mshrSlots(static_cast<std::uint32_t>(cores.size()) * mshrs),
      arena(FixedPool<Miss>::arenaBytes(mshrSlots) +
            mshrSlots * sizeof(Outstanding) + alignof(Outstanding)),
      misses(arena, mshrSlots),
      st(phase_stats), phase_(phase),
      onChip(nsToCycles(setup.sys.onChipNs)),
      lightCpi(baseCpi * 2),
      observed(obs::RunSink::global().enabled())
{
    machine.loadPageHomes(checkpoint);

    windowStart = static_cast<std::uint64_t>(phase) *
                  scale.phaseInstructions;
    windowEnd = windowStart + scale.detailInstructions();
    warmupInstr =
        windowStart +
        static_cast<std::uint64_t>(
            static_cast<double>(scale.detailInstructions()) *
            scale.warmupFraction);

    // Cores; the detailed socket is socket 0.
    for (ThreadId t = 0; t < static_cast<ThreadId>(cores.size());
         ++t) {
        CoreState &c = cores[t];
        c.socket = t / scale.coresPerSocket;
        c.detailed = (c.socket == 0);
        c.mshr = arena.allocArray<Outstanding>(mshrs);
        sn_assert(c.mshr, "MSHR arena exhausted");
        const auto &recs = trace.perThread[t];
        auto below = [](const trace::MemRecord &r, std::uint64_t v) {
            return r.instr < v;
        };
        c.idx = std::lower_bound(recs.begin(), recs.end(),
                                 windowStart, below) -
                recs.begin();
        c.end = std::lower_bound(recs.begin(), recs.end(), windowEnd,
                                 below) -
                recs.begin();
        c.recs = recs.data();
        c.lastInstr = windowStart;
    }

    // Telemetry streams: one linkUtil stream per link type present
    // in the topology, plus the aggregate DRAM request rate. The
    // reserve covers a generous-CPI estimate of the phase's pacer
    // epochs so steady-state sampling rarely reallocates (regrowth
    // past it is amortized and off the per-record path anyway).
    std::size_t epochs_est =
        static_cast<std::size_t>(
            static_cast<double>(scale.detailInstructions()) * 4.0 /
            static_cast<double>(pacerPeriod.value())) +
        2;
    linkStream.fill(noStream);
    std::array<int, 3> link_types{};
    for (const auto &link : topo.links())
        ++link_types[static_cast<int>(link.type())];
    for (int k = 0; k < 3; ++k) {
        if (!link_types[k])
            continue;
        linkStream[k] = st.series.addStream(
            std::string("linkUtil.") + linkTypeNames[k], epochs_est);
    }
    dramStream = st.series.addStream("dram.requests", epochs_est);

    // Modeled migrations: the window covers the first
    // detailFraction of the phase, so that share of the phase's
    // migrations is modeled (§IV-C) — additionally capped so the
    // modeled page-data streams cannot occupy more than ~10% of a
    // route's time in the window (the remaining migrations still
    // take effect through the checkpoint's page map, exactly like
    // the 90% outside the window).
    int ppr = pagesPerRegion(setup.regionBytes);
    Cycles window_est(
        static_cast<double>(scale.detailInstructions()) *
        baseCpi * 4);
    Cycles page_stream = serializationCycles(
        pageBytes + (pageBytes / blockBytes) * 8, 3.0);
    std::size_t page_budget = std::max<std::size_t>(
        2, window_est / (page_stream * 10));

    std::size_t n_regions = std::min<std::size_t>(
        static_cast<std::size_t>(
            static_cast<double>(
                checkpoint.regionMigrations.size()) *
                scale.detailFraction +
            0.999),
        std::max<std::size_t>(1, page_budget / ppr));
    std::size_t n_pages = std::min<std::size_t>(
        static_cast<std::size_t>(
            static_cast<double>(checkpoint.pageMigrations.size()) *
                scale.detailFraction +
            0.999),
        page_budget);
    if (checkpoint.regionMigrations.empty())
        n_regions = 0;
    if (checkpoint.pageMigrations.empty())
        n_pages = 0;

    std::size_t n_migrations = n_regions + n_pages;
    Cycles spacing =
        n_migrations ? std::max(Cycles(2000),
                                window_est / (n_migrations + 1))
                     : window_est;
    Cycles when = spacing;
    for (std::size_t i = 0; i < n_regions; ++i) {
        const auto &m = checkpoint.regionMigrations[i];
        q.schedule(when,
                   {.kind = EventKind::Migration,
                    .from = m.from,
                    .to = m.to,
                    .idx = static_cast<std::uint32_t>(ppr),
                    .arg = regionFirstPage(m.region, setup.regionBytes)
                               .value()});
        when += spacing;
    }
    when = spacing + Cycles(1);
    for (std::size_t i = 0; i < n_pages; ++i) {
        const auto &m = checkpoint.pageMigrations[i];
        q.schedule(when, {.kind = EventKind::Migration,
                          .from = m.from,
                          .to = m.to,
                          .idx = 1,
                          .arg = m.page.value()});
        when += spacing;
    }
}

/** The one dispatcher: every event of the phase lands here. */
void
PhaseSim::dispatch(const Event &ev)
{
    switch (ev.kind) {
      case EventKind::Issue:
        return issueNext(cores[ev.idx]);
      case EventKind::MissHop:
        return stepMiss(ev.idx);
      case EventKind::MissResume:
        return routeMiss(ev.idx);
      case EventKind::Writeback:
        dramAccess(ev.from, q.now(), ev.arg);
        return;
      case EventKind::Migration:
        return applyMigration(PageNum(ev.arg),
                              static_cast<int>(ev.idx), ev.from, ev.to);
      case EventKind::MigrationChunk: {
        Cycles arr =
            topo.send(ev.from, ev.to, q.now(), migrationChunkBytes);
        if (ev.last)
            migrating[PageNum(ev.arg)] = arr;
        return;
      }
      case EventKind::Pace:
        return pace();
    }
}

void
PhaseSim::applyMigration(PageNum first_page, int pages_n, NodeId from,
                         NodeId to)
{
    // Shootdowns and the page-map update happen up front; the data
    // streams over the interconnect chunk by chunk, and accesses to
    // a page stall until its last chunk has arrived (§IV-C).
    Cycles t = q.now();
    int chunks_per_page =
        static_cast<int>(pageBytes / blockBytes) /
        migrationChunkBlocks;
    Cycles chunk_gap = serializationCycles(
        migrationChunkBytes, std::min({setup.sys.upiGbps,
                                       setup.sys.numalinkGbps,
                                       setup.sys.cxlGbps}));

    Cycles chunk_time = t;
    for (int p = 0; p < pages_n; ++p) {
        PageNum page = first_page + PageNum(p);
        if (pages.home(page) == mem::invalidNode)
            continue;
        pages.setHome(page, to);
        ++st.shootdownPages;
        if (options.softwareShootdowns) {
            // Conventional shootdown: every core takes an IPI and
            // enters the kernel for every migrated page [64].
            core::ShootdownModel model;
            for (CoreState &cs : cores)
                cs.readyTime = std::max(cs.readyTime, t) +
                               model.softwareCostPerCore;
        }
        Addr byte = pageBase(page);
        for (auto &llc : llcs)
            llc.invalidatePage(byte);
        for (Addr b = byte; b < byte + pageBytes; b += blockBytes)
            for (NodeId s = 0; s < setup.sys.sockets; ++s)
                directory.evict(b, s);

        for (int ch = 0; ch < chunks_per_page; ++ch) {
            chunk_time += chunk_gap;
            q.schedule(chunk_time, {.kind = EventKind::MigrationChunk,
                                    .last = ch == chunks_per_page - 1,
                                    .from = from,
                                    .to = to,
                                    .arg = page.value()});
        }
        // Conservative availability estimate until the last chunk
        // lands (replaced by the actual arrival above).
        migrating[page] =
            chunk_time + topo.unloadedOneWay(from, to);
    }
}

// --- memory system ---

void
PhaseSim::startMiss(CoreState &c, Addr block, bool write,
                    std::uint64_t instr, bool count_stats)
{
    Cycles t = q.now();
    std::uint32_t slot = misses.allocate();
    misses[slot] = {.instr = instr,
                    .block = block,
                    .issued = t,
                    .core = static_cast<std::uint32_t>(&c - cores.data()),
                    .write = write,
                    .countStats = count_stats};

    // Stall while the page's migration is in flight.
    auto mig = migrating.find(pageNumber(block));
    if (mig != migrating.end()) {
        if (mig->second > t) {
            Cycles resume = mig->second;
            st.migStall.sample(
                static_cast<double>((resume - t).value()));
            q.schedule(resume,
                       {.kind = EventKind::MissResume, .idx = slot});
            return;
        }
        migrating.erase(mig);
    }
    routeMiss(slot);
}

void
PhaseSim::routeMiss(std::uint32_t slot)
{
    Miss &m = misses[slot];
    Cycles t = q.now();
    NodeId s = cores[m.core].socket;
    Addr block = m.block;
    PageNum page = pageNumber(block);

    NodeId home =
        options.singleSocketLocal ? s : pages.touch(page, s);

    // §V-F replication: reads of a replicated page hit the local
    // replica; a write invalidates every replica (broadcast) and
    // de-replicates the page.
    if (!machine.replicated.empty()) {
        if (machine.replicated.contains(page)) {
            if (m.write) {
                machine.replicated.erase(page);
                for (NodeId x = 0; x < setup.sys.sockets; ++x) {
                    if (x == s)
                        continue;
                    topo.send(s, x, t, topology::ctrlBytes);
                    llcs[x].invalidatePage(pageBase(page));
                }
            } else {
                home = s;
            }
        }
    }

    auto coh = directory.access(block, s, m.write, home);
    if (coh.invalidatedMask) {
        for (NodeId x = 0; x < setup.sys.sockets; ++x)
            if (coh.invalidatedMask & (1ULL << x))
                llcs[x].invalidate(block);
    }

    if (coh.blockTransfer && coh.owner != s) {
        if (coh.viaPool) {
            NodeId pool = topo.poolNode();
            m.type = AccessType::BtPool;
            m.route = {s, pool, coh.owner, pool, s};
        } else {
            m.type = AccessType::BtSocket;
            m.route = {s, home, coh.owner, s, s};
        }
    } else {
        switch (topo.classify(s, home)) {
          case topology::AccessClass::Local:
            m.type = AccessType::Local;
            break;
          case topology::AccessClass::OneHop:
            m.type = AccessType::OneHop;
            break;
          case topology::AccessClass::TwoHop:
            m.type = AccessType::TwoHop;
            break;
          default:
            m.type = AccessType::Pool;
            break;
        }
        m.route = {s, home, s, s, s};
    }
    stepMiss(slot);
}

void
PhaseSim::stepMiss(std::uint32_t slot)
{
    Miss &m = misses[slot];
    Cycles t = q.now();
    Cycles next;
    Leg leg = legPlan[static_cast<int>(m.type)][m.leg++];
    switch (leg) {
      case Leg::Dram:
        next = dramAccess(m.route[m.at], t + onChip, m.block);
        break;
      case Leg::Ctrl:
      case Leg::Data:
        next = topo.send(m.route[m.at], m.route[m.at + 1], t,
                         leg == Leg::Ctrl ? topology::ctrlBytes
                                          : topology::dataBytes);
        ++m.at;
        break;
      case Leg::Done:
        finishMiss(slot);
        return;
    }
    q.schedule(next, {.kind = EventKind::MissHop, .idx = slot});
}

void
PhaseSim::finishMiss(std::uint32_t slot)
{
    const Miss m = misses[slot];
    misses.release(slot);
    CoreState &c = cores[m.core];
    if (m.countStats) {
        double latency =
            static_cast<double>((q.now() - m.issued).value());
        ++st.mix[static_cast<int>(m.type)];
        st.latency.sample(latency);
        st.typeLatency[static_cast<int>(m.type)].sample(latency);
        if (c.detailed)
            ++st.detailedMisses;
    }
    for (std::uint32_t i = 0; i < c.inFlight; ++i) {
        if (!c.mshr[i].complete && c.mshr[i].instr == m.instr) {
            c.mshr[i].complete = true;
            break;
        }
    }
    retireCompleted(c);
    if (c.blocked) {
        c.blocked = false;
        scheduleIssue(c, std::max(q.now(), c.readyTime));
    }
}

// --- core actors ---

void
PhaseSim::retireCompleted(CoreState &c)
{
    std::uint32_t k = 0;
    while (k < c.inFlight && c.mshr[k].complete)
        ++k;
    if (k) {
        std::copy(c.mshr + k, c.mshr + c.inFlight, c.mshr);
        c.inFlight -= k;
    }
}

bool
PhaseSim::frontBlocks(const CoreState &c,
                      std::uint64_t next_instr) const
{
    if (!c.inFlight)
        return false;
    const Outstanding &front = c.mshr[0];
    if (front.complete)
        return false;
    if (c.inFlight >= mshrs)
        return true;
    if (c.detailed && front.instr + robEntries <= next_instr)
        return true;
    return false;
}

void
PhaseSim::scheduleIssue(CoreState &c, Cycles when)
{
    if (c.issuePending || c.done)
        return;
    c.issuePending = true;
    q.schedule(std::max(when, q.now()),
               {.kind = EventKind::Issue,
                .idx = static_cast<std::uint32_t>(&c - cores.data())});
}

void
PhaseSim::issueNext(CoreState &c)
{
    c.issuePending = false;
    if (c.done)
        return;
    retireCompleted(c);

    if (c.idx >= c.end) {
        if (!c.inFlight)
            finishCore(c);
        else
            c.blocked = true; // resume on completion
        return;
    }

    const trace::MemRecord r = c.recs[c.idx];
    const Addr block = r.vaddr();
    const bool write = r.isWrite();
    if (frontBlocks(c, r.instr)) {
        c.blocked = true;
        return;
    }
    Cycles t = q.now();
    if (t < c.readyTime) {
        scheduleIssue(c, c.readyTime);
        return;
    }

    if (c.detailed && !c.warmupCrossed && r.instr >= warmupInstr) {
        c.warmupCrossed = true;
        c.warmupCycle = t;
    }
    bool count_stats = r.instr >= warmupInstr;

    // LLC lookup happens inline; only misses travel.
    NodeId s = c.socket;
    mem::Cache &llc = llcs[s];
    auto look = llc.access(block, write);
    ++c.idx;
    std::uint64_t this_instr = r.instr;

    // Compute-pace the next issue.
    std::uint64_t next_instr =
        c.idx < c.end ? c.recs[c.idx].instr : windowEnd;
    std::uint64_t gap =
        next_instr > this_instr ? next_instr - this_instr : 1;
    double cpi = c.detailed ? baseCpi : lightCpi;
    c.readyTime =
        t + std::max(Cycles(1),
                     Cycles(static_cast<double>(gap) * cpi));
    c.lastInstr = this_instr;

    if (look.hit) {
        if (count_stats)
            ++st.llcHits;
        c.readyTime += c.detailed ? llcHitLatency : Cycles();
        scheduleIssue(c, c.readyTime);
        return;
    }

    ++missCount;
    // Victim handling: directory + writeback traffic.
    if (look.evicted) {
        directory.evict(look.victim, s);
        if (look.victimDirty) {
            NodeId vh = options.singleSocketLocal
                            ? s
                            : pages.home(pageNumber(look.victim));
            if (vh == s) {
                dramAccess(s, t, look.victim);
            } else if (vh != mem::invalidNode) {
                Cycles arr =
                    topo.send(s, vh, t, topology::dataBytes);
                q.schedule(arr, {.kind = EventKind::Writeback,
                                 .from = vh,
                                 .arg = look.victim});
            }
        }
    }
    // Tracker metadata update traffic (StarNUMA only).
    if (setup.sys.hasPool && (missCount % metadataWritePeriod) == 0)
        dramAccess(s, t, block ^ 0x3c3cc3c3);

    sn_assert(c.inFlight < mshrs, "MSHR overflow");
    c.mshr[c.inFlight++] = Outstanding{this_instr, false};
    startMiss(c, block, write, this_instr, count_stats);
    scheduleIssue(c, c.readyTime);
}

void
PhaseSim::finishCore(CoreState &c)
{
    Cycles t = std::max(q.now(), c.readyTime);
    c.inFlight = 0;
    if (c.lastInstr < windowEnd) {
        t += Cycles(static_cast<double>(windowEnd - c.lastInstr) *
                    (c.detailed ? baseCpi : lightCpi));
        c.lastInstr = windowEnd;
    }
    c.done = true;
    c.doneCycle = t;
    if (allDetailedDone())
        stop = true;
}

void
PhaseSim::pace()
{
    // Regulate light-core injection with the detailed socket's
    // measured IPC over the last interval (§IV-B).
    std::uint64_t instr = 0;
    int n = 0;
    for (const CoreState &c : cores) {
        if (!c.detailed)
            continue;
        instr += std::min(c.lastInstr, windowEnd) - windowStart;
        ++n;
    }
    Cycles now = q.now();
    if (instr > lastPaceInstr && now > lastPaceCycle) {
        double cpi =
            static_cast<double>((now - lastPaceCycle).value()) * n /
            static_cast<double>(instr - lastPaceInstr);
        lightCpi = std::clamp(cpi, baseCpi, 500.0);
        lastPaceInstr = instr;
        lastPaceCycle = now;
    }
    // One sampling point feeds both telemetry channels (DESIGN.md
    // §14): the deterministic series, and the trace counters that
    // re-emit from it.
    if (observed)
        sampleEpoch();
    if (!stop)
        q.scheduleAfter(pacerPeriod, {.kind = EventKind::Pace});
}

// lint: cold-path pacer-epoch telemetry; only invoked when the run
// sink is enabled (see the pace() gate)
STARNUMA_COLD_PATH void
PhaseSim::sampleEpoch()
{
    // Per-pacer-epoch samples on the simulated timeline. Busy
    // cycles are cumulative, so each epoch's utilization is the
    // delta over the epoch. Samples land in the deterministic
    // series first; the pid-2 counter events (one tid per phase,
    // ts = simulated time in us) then re-emit the series' last
    // values, so the trace file and the deterministic export share
    // one source by construction.
    Cycles now = q.now();
    if (now <= lastTraceCycle)
        return;
    double dt =
        static_cast<double>((now - lastTraceCycle).value());
    using topology::Dir;
    std::array<std::uint64_t, 3> busy{};
    std::array<int, 3> cnt{};
    for (const auto &link : topo.links()) {
        int k = static_cast<int>(link.type());
        for (Dir d : {Dir::Forward, Dir::Backward}) {
            busy[k] += link.busyCycles(d).value();
            ++cnt[k];
        }
    }
    obs::TimeSeries &series = st.series;
    std::uint64_t t = now.value();
    for (int k = 0; k < 3; ++k) {
        if (linkStream[k] == noStream)
            continue;
        series.sample(linkStream[k], t,
                      static_cast<double>(busy[k] - lastLinkBusy[k]) /
                          (dt * cnt[k]));
        lastLinkBusy[k] = busy[k];
    }
    std::uint64_t req = 0;
    for (const auto &mc : mcs)
        req += mc.requests();
    series.sample(dramStream, t,
                  static_cast<double>(req - lastDramRequests));
    lastDramRequests = req;
    lastTraceCycle = now;

    obs::TraceSession &tr = obs::TraceSession::global();
    std::string tag = "phase" + std::to_string(phase_);
    double ts_us = cyclesToNs(now) / 1000.0;
    obs::TraceArgs util;
    for (int k = 0; k < 3; ++k) {
        if (linkStream[k] == noStream)
            continue;
        util.add(linkTypeNames[k], series.lastValue(linkStream[k]));
    }
    tr.counterEvent(tag + ".linkUtil", ts_us, obs::tracePidSim,
                    phase_, util.str());
    obs::TraceArgs dram;
    dram.add("requests", series.lastValue(dramStream));
    tr.counterEvent(tag + ".dram", ts_us, obs::tracePidSim, phase_,
                    dram.str());
}

bool
PhaseSim::allDetailedDone() const
{
    for (const CoreState &c : cores)
        if (c.detailed && !c.done)
            return false;
    return true;
}

// lint: hot-path root of step C: every event of a phase is
// dispatched from this loop unless explicitly marked cold.
STARNUMA_HOT_ROOT void
PhaseSim::run()
{
    for (CoreState &c : cores) {
        if (c.idx >= c.end) {
            if (c.detailed)
                finishCore(c); // pure-compute window
            else
                c.done = true;
            continue;
        }
        double cpi = c.detailed ? baseCpi : lightCpi;
        c.readyTime = Cycles(
            static_cast<double>(c.recs[c.idx].instr - windowStart) *
            cpi);
        scheduleIssue(c, c.readyTime);
    }
    q.scheduleAfter(Cycles(2000), {.kind = EventKind::Pace});

    stop = allDetailedDone();
    // Hard ceiling to bound runaway phases.
    Cycles limit(static_cast<double>(scale.detailInstructions()) *
                 2000.0);
    auto handle = [this](const Event &ev) { dispatch(ev); };
    while (!stop && !q.empty() && q.now() < limit)
        q.step(handle);

    for (CoreState &c : cores) {
        if (!c.detailed)
            continue;
        if (!c.done)
            finishCore(c);
        Cycles start = c.warmupCrossed ? c.warmupCycle : Cycles();
        std::uint64_t instr0 =
            c.warmupCrossed ? warmupInstr : windowStart;
        st.instructions += windowEnd - instr0;
        st.cycles +=
            c.doneCycle > start ? c.doneCycle - start : Cycles(1);
    }
    st.coherence = directory.transactions();
    st.horizon = q.now();
}

void
PhaseStats::accumulate(RunMetrics &m) const
{
    m.instructions += instructions;
    m.cycles += cycles;
    m.llcHits += llcHits;
    std::uint64_t n_misses = 0;
    for (int i = 0; i < accessTypes; ++i)
        n_misses += mix[i];
    double prev_sum =
        m.amatCycles * static_cast<double>(m.memAccesses);
    m.memAccesses += n_misses;
    m.amatCycles =
        m.memAccesses ? (prev_sum + latency.sum()) /
                            static_cast<double>(m.memAccesses)
                      : 0.0;
    for (int i = 0; i < accessTypes; ++i)
        m.mix[i] += static_cast<double>(mix[i]); // raw counts
    m.coherenceTransactions += coherence;
    m.blockTransfers += mix[static_cast<int>(AccessType::BtSocket)] +
                        mix[static_cast<int>(AccessType::BtPool)];
    m.shootdownPages += shootdownPages;
    m.detailedMisses += detailedMisses;
    for (int i = 0; i < accessTypes; ++i)
        m.typeLatency[i] += typeLatency[i].sum(); // raw sums
    m.migrationStallCycles += migStall.sum();
}

// lint: cold-path stats export, once per run when observing
void
PhaseStats::registerStats(obs::Registry &r) const
{
    r.addCounter("instructions", &instructions);
    r.addCounterFn("cycles", [this] { return cycles.value(); });
    r.addCounter("llcHits", &llcHits);
    r.addCounter("detailedMisses", &detailedMisses);
    r.addCounter("shootdownPages", &shootdownPages);
    r.addCounter("coherenceTransactions", &coherence);
    r.addCounterFn("horizonCycles",
                   [this] { return horizon.value(); });
    r.addMean("latencyCycles", &latency);
    r.addMean("migrationStallCycles", &migStall);
    for (int i = 0; i < accessTypes; ++i) {
        std::string t =
            accessTypeName(static_cast<AccessType>(i));
        r.addCounter("mix." + t, &mix[i]);
        r.addMean("typeLatencyCycles." + t, &typeLatency[i]);
    }
}

} // anonymous namespace

TimingSim::TimingSim(const SystemSetup &system_setup,
                     const SimScale &sim_scale,
                     TimingOptions timing_options)
    : setup(system_setup), scale(sim_scale),
      options(timing_options)
{
    sn_assert(options.independentPhases,
              "every phase runs on its own machine");
}

RunMetrics
TimingSim::run(const trace::WorkloadTrace &trace,
               const TraceSimResult &placement)
{
    RunMetrics m;
    stats_ = obs::Snapshot();
    timeseries_ = obs::TimeSeries();

    // The page map reserves the trace's dense span; a hand-built
    // placement that maps a page outside it grows the map.
    const PageSpan span = densePageSpan(trace);

    // §IV-A3 literally: N independent timing simulations, one per
    // phase, each on its own fresh machine, fanned out over the
    // fixed-size worker pool. Each task builds its phase's event
    // queue, runs it, and frees its machine; only the last phase's
    // machine is kept, for the link diagnostics below. The machines
    // themselves are built here, on the calling thread, so they come
    // from one malloc arena: built inside the tasks, they spread over
    // the workers' arenas and the cold sweep's peak RSS rose. The
    // accumulation below walks the phases in canonical order, so the
    // merged metrics are bitwise-identical for any pool size.
    std::vector<PhaseStats> phases(scale.phases);
    std::vector<std::unique_ptr<MachineState>> machines(phases.size());
    for (auto &mine : machines)
        mine = std::make_unique<MachineState>(
            setup, scale, span, placement.replication.replicated);
    ThreadPool::global().parallelFor(phases.size(), [&](std::size_t i) {
        const int phase = static_cast<int>(i);
        obs::TraceSpan trace_span(
            "phase " + std::to_string(phase), "timing",
            obs::TraceArgs().add("phase", phase).str());
        PhaseSim(setup, scale, options, trace,
                 placement.checkpoints[i], phase, *machines[i],
                 phases[i])
            .run();
        if (i + 1 != phases.size())
            machines[i].reset();
    });
    const MachineState &machine = *machines.back();

    // Phase order is canonical here, so the merged snapshot and
    // series are identical for any pool size.
    Cycles total_horizon;
    const bool collect = obs::RunSink::global().enabled();
    for (std::size_t i = 0; i < phases.size(); ++i) {
        phases[i].accumulate(m);
        total_horizon += phases[i].horizon;
        if (collect) {
            obs::Registry reg;
            phases[i].registerStats(reg);
            stats_.merge(phasePrefix(static_cast<int>(i)),
                         reg.snapshot());
            timeseries_.merge(phasePrefix(static_cast<int>(i)),
                              phases[i].series);
        }
    }

    // Component-level stats of the last phase's machine.
    if (collect) {
        obs::Registry reg;
        machine.registerStats(reg);
        stats_.merge("machine.", reg.snapshot());
    }

    // Interconnect diagnostics (final phase's occupancy over the
    // mean phase horizon).
    {
        using topology::Dir;
        double uti[3] = {0, 0, 0};
        int cnt[3] = {0, 0, 0};
        double max_util = 0;
        stats::Mean queue;
        Cycles horizon = total_horizon != Cycles()
                             ? total_horizon / scale.phases
                             : Cycles(1);
        for (const auto &link : machine.topo.links()) {
            for (Dir d : {Dir::Forward, Dir::Backward}) {
                double u = link.utilization(d, horizon);
                int k = static_cast<int>(link.type());
                uti[k] += u;
                ++cnt[k];
                max_util = std::max(max_util, u);
                queue.sample(link.meanQueueDelay(d));
            }
        }
        if (cnt[0])
            m.upiUtilization = uti[0] / cnt[0];
        if (cnt[1])
            m.numalinkUtilization = uti[1] / cnt[1];
        if (cnt[2])
            m.cxlUtilization = uti[2] / cnt[2];
        m.maxLinkUtilization = max_util;
        m.meanLinkQueueNs = cyclesToNs(queue.mean());
        double dq = 0;
        std::uint64_t dn = 0;
        for (const auto &mc : machine.mcs) {
            dq += mc.meanQueueDelay() *
                  static_cast<double>(mc.requests());
            dn += mc.requests();
        }
        m.meanDramQueueNs =
            dn ? cyclesToNs(dq / static_cast<double>(dn)) : 0;
    }

    m.ipc = m.cycles != Cycles()
                ? static_cast<double>(m.instructions) /
                      static_cast<double>(m.cycles.value())
                : 0.0;
    std::uint64_t misses = m.memAccesses;
    if (misses) {
        double unloaded = 0;
        for (int i = 0; i < accessTypes; ++i) {
            double count = m.mix[i];
            double frac = count / static_cast<double>(misses);
            m.mix[i] = frac;
            m.typeLatency[i] = count ? m.typeLatency[i] / count : 0;
            unloaded +=
                frac * static_cast<double>(
                           nsToCycles(unloadedLatencyNs(
                                          static_cast<AccessType>(i)))
                               .value());
        }
        m.unloadedAmatCycles = unloaded;
        m.migrationStallCycles /= static_cast<double>(misses);
    }
    // Per-core LLC MPKI measured on the detailed socket (Table III).
    m.llcMpki =
        m.instructions
            ? 1000.0 * static_cast<double>(m.detailedMisses) /
                  static_cast<double>(m.instructions)
            : 0.0;
    m.migratedPages = placement.migratedPagesTotal;
    m.poolMigrationFraction = placement.poolMigrationFraction;
    return m;
}

} // namespace driver
} // namespace starnuma
