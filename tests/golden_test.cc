/**
 * @file
 * Small-scale golden-number regression fixture. The pipeline is
 * deterministic (per-task RNG streams, canonical parallel merge),
 * so model output at a fixed scale is exactly reproducible; these
 * tests pin the Table III single-socket / 16-socket baselines and
 * the per-workload Fig 8 speedup floors at a miniature scale. They
 * pin byte stability, not the paper's ranking: at this scale the
 * workloads' relative gains do not follow the paper's ordering.
 * A perf PR that silently changes model output — not just its
 * speed — fails here and must update the goldens deliberately.
 *
 * Golden values were produced by this harness at the pinned scale;
 * the tolerance only absorbs compiler/codegen noise (different
 * optimization or sanitizer builds), not model changes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/sweep.hh"
#include "driver/timing_sim.hh"
#include "driver/trace_sim.hh"
#include "sim/cas/hash.hh"
#include "sim/obs/obs.hh"
#include "sim/parallel.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace
{

/** The pinned miniature scale: 2 phases of 100k instructions. */
SimScale
goldenScale()
{
    SimScale s;
    s.phases = 2;
    s.phaseInstructions = 100000;
    return s;
}

/** Absolute tolerance for pinned IPC values (codegen noise only). */
constexpr double ipcTol = 1e-6;

struct Golden
{
    const char *workload;
    double ipcSingleSocket; ///< Table III "IPC (1s)" reference
    double ipcBaseline16;   ///< Table III 16-socket baseline
    double llcMpki;         ///< Table III MPKI (baseline 16-socket)
};

/** Golden model output at goldenScale(), in Fig 8 workload order. */
const Golden goldens[] = {
    {"bfs", 0.961706592062, 0.45625574023, 14.1818181818},
    {"tc", 1.48119394447, 1.08469606068, 7.75172413793},
    {"tpcc", 0.257033455928, 0.0292076020516, 94.6323529412},
    {"fmi", 0.426062493343, 0.0724383714576, 55.3382352941},
};

TEST(Golden, Table3BaselinesPinned)
{
    SimScale s = goldenScale();

    std::vector<driver::SweepJob> jobs;
    for (const Golden &g : goldens) {
        jobs.push_back({g.workload, driver::SystemSetup::baseline(),
                        s, /*singleSocket=*/false});
        jobs.push_back({g.workload, driver::SystemSetup::baseline(),
                        s, /*singleSocket=*/true});
    }
    auto results = driver::runSweep(jobs);

    for (std::size_t i = 0; i < std::size(goldens); ++i) {
        const Golden &g = goldens[i];
        const auto &multi = results[2 * i].metrics;
        const auto &single = results[2 * i + 1].metrics;
        SCOPED_TRACE(g.workload);
        EXPECT_NEAR(single.ipc, g.ipcSingleSocket, ipcTol);
        EXPECT_NEAR(multi.ipc, g.ipcBaseline16, ipcTol);
        EXPECT_NEAR(multi.llcMpki, g.llcMpki, 1e-4);
        // The NUMA gap Table III illustrates: single-socket local
        // execution is strictly faster than 16-socket NUMA.
        EXPECT_GT(single.ipc, multi.ipc);
    }
}

TEST(Golden, Fig8SpeedupOrderingPinned)
{
    SimScale s = goldenScale();

    std::vector<std::string> ws;
    for (const Golden &g : goldens)
        ws.push_back(g.workload);
    auto results = driver::runSweep(driver::crossJobs(
        ws,
        {driver::SystemSetup::baseline(),
         driver::SystemSetup::starnuma()},
        s));

    for (std::size_t i = 0; i < ws.size(); ++i) {
        const auto &base = results[2 * i].metrics;
        const auto &star = results[2 * i + 1].metrics;
        SCOPED_TRACE(ws[i]);
        double speedup = star.speedupOver(base);
        // StarNUMA must stay >= baseline on the sharing-heavy
        // workloads; at this miniature scale BFS's two phases leave
        // little room to migrate, so it is allowed to break even.
        if (ws[i] == "bfs")
            EXPECT_GE(speedup, 0.999);
        else
            EXPECT_GE(speedup, 1.0);
    }
}

// --- Byte-stability of every exported artifact across pool sizes ---

/**
 * The step-B checkpoint image and the replay's stats JSON must be
 * byte-identical whether the pool runs 1, 4, or 8 worker threads —
 * the determinism contract the flat-table replay path (DESIGN.md
 * §12) and the canonical merge order both feed. A single changed
 * byte here means some code path let thread scheduling leak into
 * model output or artifact layout.
 */
TEST(Golden, ArtifactsByteIdenticalAcrossPoolSizes)
{
    SimScale s = SimScale::tiny();
    // A real capture (not a synthetic trace) so replay takes the
    // dense flat-table path that production runs use.
    auto trace = workloads::makeWorkload("tc")->capture(s);
    obs::RunSink &sink = obs::RunSink::global();

    struct Artifacts
    {
        std::vector<std::uint8_t> checkpoints;
        std::string json;
    };
    // TraceSim keeps a reference to the setup: it must outlive sim.
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    auto run = [&](int pool_size) {
        ThreadPool::setGlobalThreads(pool_size);
        sink.start("");
        driver::TraceSim sim(setup, s);
        auto result = sim.run(trace);
        sink.stop();
        return Artifacts{result.serialize(), result.stats.json()};
    };

    Artifacts serial = run(1);
    EXPECT_GT(serial.checkpoints.size(), 0u);
    EXPECT_NE(serial.json.find("\"engine."), std::string::npos);
    for (int pool_size : {4, 8}) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size));
        Artifacts a = run(pool_size);
        EXPECT_EQ(a.checkpoints, serial.checkpoints);
        EXPECT_EQ(a.json, serial.json);
    }
    ThreadPool::setGlobalThreads(0);
}

// --- Step-B output pinned for every named setup ---

/** Pinned digests of one setup's replay of the tiny bfs capture. */
struct StepBPin
{
    driver::SystemSetup (*make)();
    const char *checkpoints; ///< serialize() image
    const char *series;      ///< per-phase time-series JSON
    const char *audit;       ///< Algorithm-1 audit rows
    const char *stats;       ///< stats JSON; nullptr = not pinned
    std::uint64_t shootdownsSent;  ///< DiDi-targeted invalidations
    std::uint64_t shootdownsSaved; ///< broadcast invalidations avoided
};

const StepBPin stepBPins[] = {
    {driver::SystemSetup::baseline,
     "101903d0100cf366ffd2640e7dc989ea",
     "fda760cf4ef07b4ad140dad485551d41",
     "6c62272e07bb014262b821756295c58d",
     nullptr,
     0, 0},
    {driver::SystemSetup::starnuma,
     "ce61eb2990b04384fca72be1ed35800e",
     "cd18537933cd5704ac34a7bb885d714c",
     "0d5148f5e1dd53cc184dae8b27bfb7f6",
     "af7579233020ad06db3de5323c68e321",
     234, 18454},
    {driver::SystemSetup::starnumaT0,
     "9126e64a437a3a042a36cc3861a25e2e",
     "01d51a4675f6eed9e01b7347de735fed",
     "64c7f604212330319c00e8079c5f7bbd",
     "1635cf579bc1aab4a0ebc46bd1699387",
     64, 192},
    {driver::SystemSetup::starnumaSwitched,
     "96a62f8cf937349e4c2b3702b42e4c82",
     "cd18537933cd5704ac34a7bb885d714c",
     "6d70cd33c1a1bfcafa5b7088c3e1289a",
     "af7579233020ad06db3de5323c68e321",
     234, 18454},
    {driver::SystemSetup::baselineIsoBW,
     "101903d0100cf366ffd2640e7dc989ea",
     "fda760cf4ef07b4ad140dad485551d41",
     "6c62272e07bb014262b821756295c58d",
     nullptr,
     0, 0},
    {driver::SystemSetup::baseline2xBW,
     "101903d0100cf366ffd2640e7dc989ea",
     "fda760cf4ef07b4ad140dad485551d41",
     "6c62272e07bb014262b821756295c58d",
     nullptr,
     0, 0},
    {driver::SystemSetup::starnumaHalfBW,
     "92512a7d899b96d1c105fccfbccad098",
     "cd18537933cd5704ac34a7bb885d714c",
     "b67b35a6333bd1737dcc128cc4fbaf84",
     "af7579233020ad06db3de5323c68e321",
     234, 18454},
    {driver::SystemSetup::starnumaSmallPool,
     "6384e995e2792b6bff10615c9abcf1a7",
     "cd18537933cd5704ac34a7bb885d714c",
     "4825714bcbd209ac7481f77cd8b2fa16",
     "af7579233020ad06db3de5323c68e321",
     234, 18454},
    {driver::SystemSetup::baselineStatic,
     "4df3a44b39d2713c8a5a65980d83ab19",
     "a68d90c7f78b5822836dbc798b0b8205",
     "6c62272e07bb014262b821756295c58d",
     nullptr,
     0, 0},
    {driver::SystemSetup::starnumaStatic,
     "5d4d51e6490135f47519e11a49997a71",
     "a68d90c7f78b5822836dbc798b0b8205",
     "6c62272e07bb014262b821756295c58d",
     "a68d90c7f78b5822836dbc798b0b8205",
     0, 0},
    {driver::SystemSetup::baselineReplication,
     "101903d0100cf366ffd2640e7dc989ea",
     "fda760cf4ef07b4ad140dad485551d41",
     "6c62272e07bb014262b821756295c58d",
     nullptr,
     0, 0},
};

/**
 * Step B's every output, observed, for all eleven named setups:
 * the checkpoint image, the time series and the audit log of each,
 * and the stats of the pool setups. A placement refactor must keep
 * every digest. Perfect-knowledge runs carry no engine stats.
 */
TEST(Golden, StepBOutputsPinnedForEveryNamedSetup)
{
    SimScale s = SimScale::tiny();
    auto trace = workloads::makeWorkload("bfs")->capture(s);
    obs::RunSink &sink = obs::RunSink::global();
    sink.start("");
    for (const StepBPin &pin : stepBPins) {
        // TraceSim keeps a reference to the setup: it must outlive
        // the simulator.
        driver::SystemSetup setup = pin.make();
        SCOPED_TRACE(setup.name);
        driver::TraceSimResult r = driver::TraceSim(setup, s).run(trace);
        EXPECT_EQ(cas::hashBytes(r.serialize()).hex(), pin.checkpoints);
        EXPECT_EQ(cas::hashString(r.timeseries.json()).hex(),
                  pin.series);
        EXPECT_EQ(cas::hashString(r.audit.csvRows("run")).hex(),
                  pin.audit);
        if (pin.stats != nullptr) {
            EXPECT_EQ(cas::hashString(r.stats.json()).hex(),
                      pin.stats);
        }
        // Perfect knowledge builds no migration engine.
        if (!setup.sys.hasPool &&
            setup.placement != driver::Placement::StaticOracle) {
            EXPECT_EQ(r.stats.json().find("\"engine."),
                      std::string::npos);
        }
        // The shootdown counters are not in the serialize() image.
        // Only the tracker policy shoots down; each migrated page
        // either reaches or spares every core once.
        EXPECT_EQ(r.tlbShootdownsSent, pin.shootdownsSent);
        EXPECT_EQ(r.tlbShootdownsSaved, pin.shootdownsSaved);
        if (setup.sys.hasPool &&
            setup.placement != driver::Placement::StaticOracle) {
            EXPECT_EQ(r.tlbShootdownsSent + r.tlbShootdownsSaved,
                      r.migratedPagesTotal *
                          static_cast<std::uint64_t>(trace.threads));
        }
    }
    sink.stop();
}

// --- Step-C output pinned for every named setup ---

/** Pinned digests of one setup's timing run of the tiny bfs capture. */
struct StepCPin
{
    driver::SystemSetup (*make)();
    const char *metrics; ///< metricsSnapshot(RunMetrics) JSON
    const char *stats;   ///< stats JSON, machine.socketN.llc.* included
    const char *series;  ///< per-phase time-series JSON
};

const StepCPin stepCPins[] = {
    {driver::SystemSetup::baseline,
     "7b6a8af0c669821c9ac0900edfc88d60",
     "65ac509ae102931869149996ae9f684a",
     "5db58760c197925a46909ff285973717"},
    {driver::SystemSetup::starnuma,
     "08c1db691aed6cb915932a794570deb1",
     "9ce040dd175a3c10b5d023b4f7003e30",
     "ce0f559752f7675edd6c4b38e253f2f2"},
    {driver::SystemSetup::starnumaT0,
     "6c09307ef758f0a9f3068e3464796867",
     "4b51c79989cb21d8d06a06a43b134420",
     "0d18adee645fc50023cbe1d38cf2c0dc"},
    {driver::SystemSetup::starnumaSwitched,
     "adb9e03d16d98f4be5fbdc1e3e8416a9",
     "23a496f1d72a0daa44f564e1b3a463d5",
     "c1a2cb71372e2722bdf37af95054c2f6"},
    {driver::SystemSetup::baselineIsoBW,
     "1e1b1434d1c71ff9ff8c36d5a4ffccb7",
     "eb2fdb262f397a97da5d3f620987e6d9",
     "89f65c5e3e18391074df8f31aec1c0f2"},
    {driver::SystemSetup::baseline2xBW,
     "d58a822870f8f57d3a13739200b32d67",
     "86ddbb950a2cd78fcac03255fbda7209",
     "ddc58068dd2b5bba15e9a996cae305f6"},
    {driver::SystemSetup::starnumaHalfBW,
     "a9caca4e6a0a39d4f2712cd8b50043e3",
     "c77bbc5394ac894248388b73b458b846",
     "8467d09717a5f2fc820224bff756eedd"},
    {driver::SystemSetup::starnumaSmallPool,
     "0829469c7b96660ede3fb03db08ddafc",
     "4f74c25b1494ae28a7773977da4d900c",
     "336be4c2e5b9d72d2ea8b5800ddc18fb"},
    {driver::SystemSetup::baselineStatic,
     "26b211a242008175bbf599f314f49193",
     "f57a8e758cf85d1a0655d13efa68e634",
     "127c06eaedd439ec4391b7147e610db5"},
    {driver::SystemSetup::starnumaStatic,
     "1b2fc97a0437875f174f5789ce0a7b9a",
     "72f963a671f1501cf0d4ce9489bd613c",
     "ea29b38865a62afbc90a20635df47bb0"},
    {driver::SystemSetup::baselineReplication,
     "7b6a8af0c669821c9ac0900edfc88d60",
     "65ac509ae102931869149996ae9f684a",
     "5db58760c197925a46909ff285973717"},
};

/**
 * Step C's every output, observed, for all eleven named setups: the
 * run metrics, the stats (every socket's LLC counters among them)
 * and the time series of each, with independent phases as the
 * production callers run them. A timing-layer rewrite (the LLC's
 * storage, the event loop) must keep every digest.
 */
TEST(Golden, StepCOutputsPinnedForEveryNamedSetup)
{
    SimScale s = SimScale::tiny();
    auto trace = workloads::makeWorkload("bfs")->capture(s);
    obs::RunSink &sink = obs::RunSink::global();
    sink.start("");
    for (const StepCPin &pin : stepCPins) {
        // Both simulators keep a reference to the setup: it must
        // outlive them.
        driver::SystemSetup setup = pin.make();
        SCOPED_TRACE(setup.name);
        driver::TraceSimResult placement =
            driver::TraceSim(setup, s).run(trace);
        driver::TimingSim sim(setup, s);
        driver::RunMetrics m = sim.run(trace, placement);
        EXPECT_EQ(cas::hashString(driver::metricsSnapshot(m).json()).hex(),
                  pin.metrics);
        EXPECT_EQ(cas::hashString(sim.stats().json()).hex(), pin.stats);
        EXPECT_EQ(cas::hashString(sim.timeseries().json()).hex(),
                  pin.series);
        EXPECT_NE(sim.stats().json().find(".llc.hits\""),
                  std::string::npos);
    }
    sink.stop();
}

/**
 * A hand-built trace on which step C's LLC invalidations matter. All
 * threads read and write the same pages, so the directory
 * invalidates other sockets' copies; the pages are widely shared and
 * hot, so Algorithm 1 moves their regions to the pool and phase 1's
 * modeled migrations shoot them down. The pages sit 32 pages (2048
 * blocks, the LLC's set count) apart, so their blocks all fall into
 * the same four sets of every socket's LLC: 40 pages overflow those
 * sets' 16 ways, and a set an invalidation leaves with room refills
 * on the next miss.
 */
trace::WorkloadTrace
invalidationTrace(const SimScale &s)
{
    constexpr std::uint64_t pages = 40;
    constexpr std::uint64_t stride = 32; // pages between touched pages
    constexpr std::uint64_t blocksPerPage = 4;
    constexpr std::uint64_t gap = 8; // instructions between records
    const Addr base = 0x10000000;
    trace::WorkloadTrace t;
    t.workload = "llc-invalidation";
    t.threads = s.threads();
    t.instructionsPerThread =
        static_cast<std::uint64_t>(s.phases) * s.phaseInstructions;
    t.footprintBytes = pages * stride * pageBytes;
    t.perThread.resize(t.threads);
    for (ThreadId th = 0; th < t.threads; ++th) {
        for (std::uint64_t instr = gap; instr <= t.instructionsPerThread;
             instr += gap) {
            std::uint64_t i = instr / gap + 7 * th;
            Addr addr = base + (i % pages) * stride * pageBytes +
                        (i / pages % blocksPerPage) * blockBytes;
            t.perThread[th].emplace_back(instr, addr, (i + th) % 5 == 0);
        }
    }
    return t;
}

/**
 * Step C's outputs on invalidationTrace(): the end-to-end pin that
 * depends on mem::Cache::invalidate leaving the valid ways a prefix
 * of the set, which the named-setup pins above (too short to refill
 * an invalidated set) do not.
 */
TEST(Golden, StepCLlcInvalidationRefillPinned)
{
    SimScale s;
    s.phases = 2;
    s.phaseInstructions = 20000;
    s.detailFraction = 0.5;
    s.warmupFraction = 0.1;
    const trace::WorkloadTrace trace = invalidationTrace(s);
    const driver::SystemSetup setup = driver::SystemSetup::starnuma();
    obs::RunSink &sink = obs::RunSink::global();
    sink.start("");
    driver::TraceSimResult placement =
        driver::TraceSim(setup, s).run(trace);
    EXPECT_GT(placement.checkpoints[1].regionMigrations.size(), 0u);
    driver::TimingSim sim(setup, s);
    driver::RunMetrics m = sim.run(trace, placement);
    sink.stop();

    // Both kinds of invalidation happened, and the sets overflowed.
    EXPECT_GT(m.shootdownPages, 0u);
    const obs::Snapshot &stats = sim.stats();
    for (const char *counter :
         {"machine.directory.invalidations",
          "machine.socket0.llc.evictions"}) {
        std::string v = stats.get(counter);
        EXPECT_TRUE(!v.empty() && v != "0") << counter << " = " << v;
    }
    EXPECT_EQ(cas::hashString(driver::metricsSnapshot(m).json()).hex(),
              "2c0a9ebf0c4bf0744b803fa9536af7cb");
    EXPECT_EQ(cas::hashString(stats.json()).hex(),
              "21be808c7ddfbc2df3bc82c7503779c3");
}

} // anonymous namespace
} // namespace starnuma
