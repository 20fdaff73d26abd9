/**
 * @file
 * Incremental sweep engine (DESIGN.md §16): cache-key stability
 * goldens (each declared input perturbs the key; nothing else
 * does), warm-equals-cold byte identity across worker-pool sizes,
 * differential re-simulation from the first divergent phase, the
 * corruption contract at the experiment tier (a damaged stored
 * bundle demotes to recomputation with identical artifacts), the
 * one code epoch shared by every key, the store audit, that an
 * observed run skips the experiment tier, and that with the store
 * disabled nothing reaches the disk.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "driver/artifact_cache.hh"
#include "driver/artifact_key.hh"
#include "driver/experiment.hh"
#include "driver/trace_sim.hh"
#include "sim/cas/code_epoch.hh"
#include "sim/cas/hash.hh"
#include "sim/cas/store.hh"
#include "sim/obs/obs.hh"
#include "sim/parallel.hh"
#include "sim/scale.hh"

namespace starnuma
{
namespace
{

/** Fresh-store RAII: every test runs against its own emptied cache
 *  directory and leaves the process-global cache disabled. */
struct ScopedCache
{
    explicit ScopedCache(const std::string &name)
    {
        driver::ArtifactCache &c = driver::ArtifactCache::global();
        c.enable(testing::TempDir() + name);
        c.store()->trim(0);
        c.resetCounters();
    }
    ~ScopedCache()
    {
        driver::ArtifactCache::global().store()->trim(0);
        driver::ArtifactCache::global().disable();
    }
};

cas::Hash128
fakeContent()
{
    return cas::hashString("trace-content-fixture");
}

// --- cache-key stability -------------------------------------------

TEST(CacheKey, TraceKeyPerturbation)
{
    SimScale s = SimScale::tiny();
    std::string base = driver::traceKeyText("bfs", s);
    // Deterministic: same inputs, same key text.
    EXPECT_EQ(base, driver::traceKeyText("bfs", s));
    EXPECT_NE(base, driver::traceKeyText("tc", s));

    // Every scale knob folds into the "scale" fingerprint.
    SimScale s2 = s;
    s2.phaseInstructions += 1;
    EXPECT_NE(base, driver::traceKeyText("bfs", s2));
    SimScale s3 = s;
    s3.coresPerSocket *= 2;
    EXPECT_NE(base, driver::traceKeyText("bfs", s3));

    // The key is self-describing "field=value" text.
    EXPECT_NE(base.find("kind=step_a_trace\n"), std::string::npos);
    EXPECT_NE(base.find("workload.name=bfs\n"), std::string::npos);
    EXPECT_NE(base.find("code.epoch="), std::string::npos);
    EXPECT_NE(base.find("env.STARNUMA_THREADS=invariant\n"),
              std::string::npos);

    // The declared environment is exactly the store location and the
    // pool size; no other variable can shape a cached artifact.
    std::vector<std::string> env_fields;
    std::istringstream lines(base);
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("env.", 0) == 0)
            env_fields.push_back(line.substr(0, line.find('=')));
    EXPECT_EQ(env_fields,
              (std::vector<std::string>{"env.STARNUMA_CACHE_DIR",
                                        "env.STARNUMA_THREADS"}));
    // No field names a trace directory: the store is the only disk
    // cache.
    EXPECT_EQ(base.find("TRACE_DIR"), std::string::npos);

    // One whole-tree code epoch keys every stored tier.
    const std::string epoch = cas::codeEpoch();
    EXPECT_EQ(epoch.size(), 32u);
    EXPECT_EQ(epoch.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    for (const std::string &key :
         {base, driver::stateKeyText("bfs", setup, s, fakeContent(), 1),
          driver::resultKeyText("bfs", setup, s, fakeContent())})
        EXPECT_EQ(driver::keyField(key, "code.epoch"), epoch) << key;
}

TEST(CacheKey, ResultKeyPerturbation)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    std::string base = driver::resultKeyText("bfs", setup, s,
                                             fakeContent());
    EXPECT_EQ(base, driver::resultKeyText("bfs", setup, s,
                                          fakeContent()));

    // Each declared input moves the key.
    EXPECT_NE(base, driver::resultKeyText("tc", setup, s,
                                          fakeContent()));
    EXPECT_NE(base, driver::resultKeyText(
                        "bfs", setup, s,
                        cas::hashString("other-trace")));

    driver::SystemSetup pol = setup;
    pol.migration.hiThresholdStart += 1;
    EXPECT_NE(base, driver::resultKeyText("bfs", pol, s,
                                          fakeContent()));
    driver::SystemSetup topo = setup;
    topo.sys.cxlOneWayNs += 1.0;
    EXPECT_NE(base, driver::resultKeyText("bfs", topo, s,
                                          fakeContent()));
    driver::SystemSetup sched = setup;
    sched.phasePolicies.push_back({1, 0.5, 4});
    EXPECT_NE(base, driver::resultKeyText("bfs", sched, s,
                                          fakeContent()));
}

/**
 * The state key's policy fingerprint covers exactly the schedule
 * *prefix* applied before the snapshot phase — the property the
 * differential resume leans on: cells diverging at phase k share
 * every state object at phases <= k.
 */
TEST(CacheKey, StateKeyCoversOnlyThePolicyPrefix)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup shared = driver::SystemSetup::starnuma();
    driver::SystemSetup diverged = shared;
    diverged.phasePolicies.push_back({1, 0.10, 2});

    // Phase 1 precedes the divergence: identical keys.
    EXPECT_EQ(driver::stateKeyText("bfs", shared, s, fakeContent(),
                                   1),
              driver::stateKeyText("bfs", diverged, s,
                                   fakeContent(), 1));
    // A later phase sees the diverged prefix: different keys.
    EXPECT_NE(driver::stateKeyText("bfs", shared, s, fakeContent(),
                                   2),
              driver::stateKeyText("bfs", diverged, s,
                                   fakeContent(), 2));
    // Phases key separately.
    EXPECT_NE(driver::stateKeyText("bfs", shared, s, fakeContent(),
                                   1),
              driver::stateKeyText("bfs", shared, s, fakeContent(),
                                   2));
}

// --- experiment-tier behaviour -------------------------------------

std::vector<std::uint8_t>
placementBytes(const driver::ExperimentResult &r)
{
    return r.placement.serialize();
}

TEST(SweepCache, WarmResultHitIsByteIdentical)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    // Reference: the exact artifacts an uncached run produces.
    driver::ArtifactCache::global().disable();
    driver::ExperimentResult ref =
        driver::runExperiment("tc", setup, s);

    ScopedCache cache_dir("sweep_cache_hit");
    driver::ArtifactCache &cache = driver::ArtifactCache::global();

    driver::ExperimentResult cold =
        driver::runExperiment("tc", setup, s);
    EXPECT_EQ(cache.resultMisses(), 1u);
    EXPECT_EQ(cache.resultHits(), 0u);
    EXPECT_EQ(placementBytes(cold), placementBytes(ref));

    driver::ExperimentResult warm =
        driver::runExperiment("tc", setup, s);
    EXPECT_EQ(cache.resultHits(), 1u);
    EXPECT_EQ(placementBytes(warm), placementBytes(ref));
    EXPECT_EQ(driver::metricsSnapshot(warm.metrics).values(),
              driver::metricsSnapshot(ref.metrics).values());
}

TEST(SweepCache, WarmEqualsColdAcrossPoolSizes)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    ScopedCache cache_dir("sweep_cache_pools");

    ThreadPool::setGlobalThreads(1);
    driver::ExperimentResult cold =
        driver::runExperiment("bfs", setup, s);
    std::vector<std::uint8_t> cold_bytes = placementBytes(cold);
    auto cold_metrics =
        driver::metricsSnapshot(cold.metrics).values();
    EXPECT_FALSE(cold_bytes.empty());

    // The store is keyed by deterministic inputs only, so a pool
    // of any size replays the cold artifacts bit-for-bit.
    for (int pool_size : {4, 8}) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size));
        ThreadPool::setGlobalThreads(pool_size);
        driver::ExperimentResult warm =
            driver::runExperiment("bfs", setup, s);
        EXPECT_EQ(placementBytes(warm), cold_bytes);
        EXPECT_EQ(driver::metricsSnapshot(warm.metrics).values(),
                  cold_metrics);
    }
    ThreadPool::setGlobalThreads(0);
    EXPECT_EQ(driver::ArtifactCache::global().resultHits(), 2u);
}

TEST(SweepCache, DivergentPolicyResumesFromSharedPhase)
{
    SimScale s = SimScale::tiny(); // 2 migration phases
    driver::SystemSetup shared = driver::SystemSetup::starnuma();
    // Same name (the replay RNG seeds from it — a differently
    // named setup is a genuinely different simulation), schedule
    // diverging at phase 1.
    driver::SystemSetup diverged = shared;
    diverged.phasePolicies.push_back({1, 0.10, 2});

    // Reference for the diverged cell, no cache anywhere.
    driver::ArtifactCache::global().disable();
    driver::ExperimentResult ref =
        driver::runExperiment("cc", diverged, s);

    ScopedCache cache_dir("sweep_cache_diverge");
    driver::ArtifactCache &cache = driver::ArtifactCache::global();

    // Cold pass of the shared-prefix cell persists its phase-1
    // state under the shared policy-prefix key.
    driver::runExperiment("cc", shared, s);
    EXPECT_EQ(cache.partialHits(), 0u);

    // The diverged cell misses at the result tier but finds the
    // phase-1 state: differential re-simulation from phase 1.
    driver::ExperimentResult out =
        driver::runExperiment("cc", diverged, s);
    EXPECT_EQ(cache.partialHits(), 1u);
    EXPECT_GE(cache.phasesSkipped(), 1u);
    EXPECT_EQ(out.placement.resumedFromPhase, 1);
    EXPECT_EQ(placementBytes(out), placementBytes(ref));
    EXPECT_EQ(driver::metricsSnapshot(out.metrics).values(),
              driver::metricsSnapshot(ref.metrics).values());
}

TEST(SweepCache, CorruptedBundleDemotesToRecompute)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    ScopedCache cache_dir("sweep_cache_corrupt");
    driver::ArtifactCache &cache = driver::ArtifactCache::global();
    std::shared_ptr<cas::Store> store = cache.store();

    driver::ExperimentResult cold =
        driver::runExperiment("fmi", setup, s);
    std::vector<std::uint8_t> cold_bytes = placementBytes(cold);

    // Flip one byte in the middle of every stored object.
    for (const std::string &rel : store->listObjects()) {
        std::string path = store->directory() + "/" + rel;
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        ASSERT_GT(size, 0);
        std::fseek(f, size / 2, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, size / 2, SEEK_SET);
        std::fputc(c ^ 0x55, f);
        std::fclose(f);
    }

    cache.resetCounters();
    driver::ExperimentResult redo =
        driver::runExperiment("fmi", setup, s);
    EXPECT_EQ(cache.resultHits(), 0u);
    EXPECT_EQ(cache.partialHits(), 0u);
    EXPECT_EQ(cache.resultMisses(), 1u);
    EXPECT_EQ(placementBytes(redo), cold_bytes);
}

/**
 * The audit behind `example_starnuma_cli cache`: fresh is ok, another
 * epoch is stale, a bit flip or a filename that does not hash the key
 * is invalid; dropping removes exactly those three, a zero budget
 * empties the store.
 */
TEST(CacheAudit, CountsAndDropsBadObjects)
{
    cas::Store store(testing::TempDir() + "cache_audit");
    store.trim(0);
    SimScale s = SimScale::tiny();
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};

    const std::string fresh = driver::traceKeyText("bfs", s);
    std::string stale = driver::traceKeyText("tc", s);
    const std::string epoch = cas::codeEpoch();
    stale.replace(stale.find(epoch), epoch.size(),
                  std::string(epoch.size(), '0'));
    const std::string flipped = driver::traceKeyText("poa", s);
    const std::string moved = driver::traceKeyText("fmi", s);
    for (const std::string &key : {fresh, stale, flipped, moved})
        ASSERT_TRUE(store.putObject(key, payload));

    std::FILE *f = std::fopen(store.objectPath(flipped).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    std::fputc(payload.back() ^ 0x40, f);
    std::fclose(f);
    std::string to = store.objectPath(moved);
    char &digit = to[to.size() - 5]; // the name's last hex digit
    digit = digit == '0' ? '1' : '0';
    ASSERT_EQ(std::rename(store.objectPath(moved).c_str(), to.c_str()),
              0);

    driver::StoreAudit audit = driver::auditStore(store, true);
    EXPECT_EQ(audit.ok, 1u);
    EXPECT_EQ(audit.stale, 1u);
    EXPECT_EQ(audit.invalid, 2u);
    std::vector<std::string> left = store.listObjects();
    ASSERT_EQ(left.size(), 1u);
    EXPECT_EQ(store.directory() + "/" + left[0], store.objectPath(fresh));

    EXPECT_EQ(driver::auditStore(store, false, 0).ok, 1u);
    EXPECT_TRUE(store.listObjects().empty());
}

/**
 * An observed run skips the experiment tier and the step-B hooks:
 * with a store it writes no experiment_result or step_b_state
 * object, and its stats equal those of a store-less observed run.
 */
TEST(SweepCache, ObservedRunSkipsExperimentTier)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    obs::RunSink &sink = obs::RunSink::global();

    sink.start("");
    driver::runExperiment("tc", setup, s);
    const std::string plain = sink.stats().json();
    sink.stop();

    ScopedCache cache_dir("sweep_cache_observed");
    driver::ArtifactCache &cache = driver::ArtifactCache::global();
    sink.start("");
    driver::runExperiment("tc", setup, s);
    const std::string stored = sink.stats().json();
    sink.stop();

    EXPECT_EQ(stored, plain);
    EXPECT_EQ(cache.resultHits() + cache.resultMisses(), 0u);
    EXPECT_EQ(cache.partialHits(), 0u);
    for (const auto &o : driver::auditStore(*cache.store()).objects) {
        EXPECT_NE(o.kind, "experiment_result") << o.rel;
        EXPECT_NE(o.kind, "step_b_state") << o.rel;
    }
}

TEST(SweepCache, TraceTierCountsCaptures)
{
    // The process-wide trace memo makes per-test trace-tier
    // assertions order-dependent, so assert only the monotone
    // contract: captures never decrease, and a memoized workload
    // is not re-captured by a second lookup.
    SimScale s = SimScale::tiny();
    std::uint64_t before = driver::workloadTraceCaptures();
    driver::workloadTrace("tc", s);
    std::uint64_t after = driver::workloadTraceCaptures();
    EXPECT_GE(after, before);
    driver::workloadTrace("tc", s);
    EXPECT_EQ(driver::workloadTraceCaptures(), after);
}

/**
 * With the artifact store disabled nothing persists: a step-A
 * capture leaves the working directory untouched (the store is the
 * simulator's only on-disk cache).
 */
TEST(SweepCache, CaptureWithoutStoreWritesNothing)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(testing::TempDir()) / "no_disk_capture";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::path cwd = fs::current_path();
    fs::current_path(dir);

    driver::ArtifactCache::global().disable();
    driver::workloadTrace("poa", SimScale::tiny());
    bool untouched = fs::is_empty(dir);

    fs::current_path(cwd);
    EXPECT_TRUE(untouched);
    fs::remove_all(dir);
}

} // anonymous namespace
} // namespace starnuma
