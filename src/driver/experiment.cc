#include "driver/experiment.hh"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "driver/artifact_cache.hh"
#include "driver/artifact_key.hh"
#include "sim/annotations.hh"
#include "sim/bytes.hh"
#include "sim/cas/hash.hh"
#include "sim/logging.hh"
#include "sim/sync.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/trace_session.hh"
#include "trace/columnar.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace driver
{

namespace
{

/**
 * One memo slot. The once_flag serializes the capture itself while
 * leaving the memo lock free, so concurrent misses on *different*
 * keys capture in parallel and concurrent misses on the *same* key
 * run exactly one capture with everyone sharing the result.
 * The content hash (over the canonical columnar v2 encoding, the
 * byte image the artifact store holds) is computed lazily behind
 * its own once_flag: it is only needed when the artifact cache is
 * enabled, and step-B/result cache keys embed it as trace.content.
 */
struct TraceEntry
{
    std::once_flag once;
    trace::WorkloadTrace trace;
    std::once_flag hashOnce;
    cas::Hash128 content;
};

/**
 * Memoized trace.content. Callers must have passed the entry's
 * capture once_flag already (the trace is immutable by then).
 */
// lint: cold-path one encode per (workload, scale) per process
const cas::Hash128 &
traceContentHash(TraceEntry &e)
{
    std::call_once(e.hashOnce, [&e] {
        e.content =
            cas::hashBytes(trace::encodeColumnar(e.trace));
    });
    return e.content;
}

Mutex traceMemoMu;
std::map<std::pair<std::string, std::string>,
         std::shared_ptr<TraceEntry>> traceMemo
    STARNUMA_GUARDED_BY(traceMemoMu);
// Relaxed is load-bearing and sufficient: traceCaptures is a pure
// event counter — nothing is published through it, and the captured
// trace itself is handed to waiters by call_once's own
// synchronization. Readers (tests asserting one capture per key)
// observe it only after joining the work that incremented it, so a
// relaxed monotone count is exact by then.
std::atomic<std::uint64_t> traceCaptures{0};

/**
 * Memo lookup + capture-or-fetch. With the artifact store enabled
 * the capture tier becomes: fetch the columnar v2 bytes by cache
 * key (decode verifies on top of the store's content hash), and on
 * a miss capture as before and persist the encoding — so a warm
 * process never replays workload setup code at all.
 */
// lint: artifact-root step_a_trace
std::shared_ptr<TraceEntry>
traceEntryFor(const std::string &name, const SimScale &scale)
{
    std::string scale_key =
        std::to_string(scale.threads()) + ":" +
        std::to_string(scale.phases) + ":" +
        std::to_string(scale.phaseInstructions);

    std::shared_ptr<TraceEntry> entry;
    {
        MutexLock lock(traceMemoMu);
        auto &slot = traceMemo[{name, scale_key}];
        if (!slot)
            slot = std::make_shared<TraceEntry>();
        entry = slot; // entries are never evicted: references stay valid
    }
    std::call_once(entry->once, [&] {
        ArtifactCache &cache = ArtifactCache::global();
        std::shared_ptr<cas::Store> store = cache.store();
        std::string key;
        if (store) {
            key = traceKeyText(name, scale);
            std::vector<std::uint8_t> payload;
            std::uint64_t t0 = cacheNowNanos();
            if (store->fetchObject(key, payload) &&
                trace::decodeColumnar(payload.data(),
                                      payload.size(),
                                      entry->trace)) {
                cache.noteTraceHit();
                cache.noteBytesRead(payload.size());
                cache.noteHitNanos(cacheNowNanos() - t0);
                return;
            }
        }
        std::uint64_t t0 = cacheNowNanos();
        obs::TraceSpan span(
            "capture " + name, "capture",
            obs::TraceArgs().add("workload", name).str());
        entry->trace = workloads::makeWorkload(name)->capture(scale);
        traceCaptures.fetch_add(1, std::memory_order_relaxed);
        if (store) {
            std::vector<std::uint8_t> payload =
                trace::encodeColumnar(entry->trace);
            if (store->putObject(key, payload))
                cache.noteBytesWritten(payload.size());
            cache.noteTraceMiss();
            cache.noteMissNanos(cacheNowNanos() - t0);
        }
    });
    return entry;
}

} // anonymous namespace

const trace::WorkloadTrace &
workloadTrace(const std::string &name, const SimScale &scale)
{
    return traceEntryFor(name, scale)->trace;
}

std::uint64_t
workloadTraceCaptures()
{
    return traceCaptures.load(std::memory_order_relaxed);
}

namespace
{

// Experiment-result bundle format v2 ("STARRES2"): the run's
// metrics and the step-B artifact (checkpoint format v2, embedded
// via TraceSimResult::serialize). Varint coded with sim/bytes.hh;
// doubles keep their exact IEEE bits. A bundle carries no
// observability channel, so observed runs never use this tier.
constexpr std::uint64_t resultBundleMagic = 0x5354415252455332ULL;

void
encodeMetrics(std::vector<std::uint8_t> &buf, const RunMetrics &m)
{
    putVarint(buf, m.instructions);
    putVarint(buf, m.cycles.value());
    putDouble(buf, m.ipc);
    putVarint(buf, m.memAccesses);
    putVarint(buf, m.llcHits);
    putVarint(buf, m.detailedMisses);
    putDouble(buf, m.llcMpki);
    putDouble(buf, m.amatCycles);
    putDouble(buf, m.unloadedAmatCycles);
    for (double v : m.mix)
        putDouble(buf, v);
    for (double v : m.typeLatency)
        putDouble(buf, v);
    putDouble(buf, m.migrationStallCycles);
    putDouble(buf, m.upiUtilization);
    putDouble(buf, m.numalinkUtilization);
    putDouble(buf, m.cxlUtilization);
    putDouble(buf, m.maxLinkUtilization);
    putDouble(buf, m.meanLinkQueueNs);
    putDouble(buf, m.meanDramQueueNs);
    putVarint(buf, m.migratedPages);
    putDouble(buf, m.poolMigrationFraction);
    putVarint(buf, m.coherenceTransactions);
    putVarint(buf, m.blockTransfers);
    putVarint(buf, m.shootdownPages);
}

bool
decodeMetrics(ByteReader &r, RunMetrics &m)
{
    std::uint64_t cycles = 0;
    bool ok = r.getVarint(m.instructions) && r.getVarint(cycles) &&
              r.getDouble(m.ipc) && r.getVarint(m.memAccesses) &&
              r.getVarint(m.llcHits) &&
              r.getVarint(m.detailedMisses) &&
              r.getDouble(m.llcMpki) && r.getDouble(m.amatCycles) &&
              r.getDouble(m.unloadedAmatCycles);
    if (!ok)
        return false;
    m.cycles = Cycles(cycles);
    for (double &v : m.mix)
        if (!r.getDouble(v))
            return false;
    for (double &v : m.typeLatency)
        if (!r.getDouble(v))
            return false;
    return r.getDouble(m.migrationStallCycles) &&
           r.getDouble(m.upiUtilization) &&
           r.getDouble(m.numalinkUtilization) &&
           r.getDouble(m.cxlUtilization) &&
           r.getDouble(m.maxLinkUtilization) &&
           r.getDouble(m.meanLinkQueueNs) &&
           r.getDouble(m.meanDramQueueNs) &&
           r.getVarint(m.migratedPages) &&
           r.getDouble(m.poolMigrationFraction) &&
           r.getVarint(m.coherenceTransactions) &&
           r.getVarint(m.blockTransfers) &&
           r.getVarint(m.shootdownPages);
}

// lint: cold-path once per experiment, cache-enabled runs only
// lint: artifact-root experiment_result
std::vector<std::uint8_t>
encodeResultBundle(const ExperimentResult &result)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, resultBundleMagic);
    encodeMetrics(buf, result.metrics);
    std::vector<std::uint8_t> placement =
        result.placement.serialize();
    buf.insert(buf.end(), placement.begin(), placement.end());
    return buf;
}

// lint: cold-path once per experiment, cache-enabled runs only
bool
decodeResultBundle(const std::vector<std::uint8_t> &payload,
                   ExperimentResult &result)
{
    ByteReader r(payload.data(), payload.size());
    std::uint64_t magic = 0;
    return r.getVarint(magic) && magic == resultBundleMagic &&
           decodeMetrics(r, result.metrics) &&
           result.placement.deserialize(r) && r.remaining() == 0;
}

/**
 * Hand one finished run to the run sink under its
 * "<workload>.<setup>" key (DESIGN.md §9): summary, timing and
 * trace-sim stats, both sides' time series, and the audit log.
 */
// lint: cold-path once per experiment, observed runs only
void
observeRun(const std::string &run, const RunMetrics &m,
           const TimingSim &timing, const TraceSimResult &placement)
{
    obs::RunSink &sink = obs::RunSink::global();
    if (!sink.enabled())
        return;
    const std::string prefix = run + ".";
    sink.add(prefix + "summary.", metricsSnapshot(m));
    sink.add(prefix + "timing.", timing.stats());
    sink.add(prefix + "traceSim.", placement.stats);
    sink.add(prefix + "timing.", timing.timeseries());
    sink.add(prefix + "traceSim.", placement.timeseries);
    sink.add(run, placement.audit);
}

} // anonymous namespace

ExperimentResult
runExperiment(const std::string &workload, const SystemSetup &setup,
              const SimScale &scale)
{
    obs::TraceSpan exp_span(
        workload + " / " + setup.name, "experiment",
        obs::TraceArgs()
            .add("workload", workload)
            .add("setup", setup.name)
            .str());
    std::shared_ptr<TraceEntry> entry =
        traceEntryFor(workload, scale);
    const trace::WorkloadTrace &trace = entry->trace;

    ArtifactCache &cache = ArtifactCache::global();
    std::shared_ptr<cas::Store> store = cache.store();
    // Result bundles carry no observability channel: while the run
    // sink observes, the experiment tier runs uncached and the
    // phase hooks stay off (trace_sim enforces the same envelope).
    const bool use_cache =
        store != nullptr && !obs::RunSink::global().enabled();

    ExperimentResult result;
    std::string rkey;
    if (use_cache) {
        rkey = resultKeyText(workload, setup, scale,
                             traceContentHash(*entry));
        std::vector<std::uint8_t> payload;
        std::uint64_t t0 = cacheNowNanos();
        if (store->fetchObject(rkey, payload) &&
            decodeResultBundle(payload, result)) {
            cache.noteResultHit();
            cache.noteBytesRead(payload.size());
            cache.noteHitNanos(cacheNowNanos() - t0);
            return result;
        }
        result = ExperimentResult();
    }
    std::uint64_t miss_t0 = cacheNowNanos();

    // Differential re-simulation (DESIGN.md §16): look for the
    // deepest stored phase state whose policy prefix matches, hand
    // it to TraceSim as the resume point, and persist the states
    // this run passes through for future divergent cells.
    PhaseStateHooks hooks;
    std::vector<std::uint8_t> resume_blob;
    const bool stateful =
        use_cache && setup.sys.hasPool &&
        setup.placement == Placement::FirstTouchDynamic;
    if (stateful) {
        const cas::Hash128 &content = traceContentHash(*entry);
        for (int k = scale.phases - 1; k >= 1; --k) {
            std::string skey =
                stateKeyText(workload, setup, scale, content, k);
            if (store->fetchObject(skey, resume_blob)) {
                hooks.resumePhase = k;
                hooks.resumeState = &resume_blob;
                cache.noteBytesRead(resume_blob.size());
                break;
            }
        }
        hooks.onPhaseState =
            [&](int phase,
                const std::vector<std::uint8_t> &state) {
                std::string skey = stateKeyText(
                    workload, setup, scale,
                    traceContentHash(*entry), phase);
                if (!store->containsObject(skey) &&
                    store->putObject(skey, state))
                    cache.noteBytesWritten(state.size());
            };
    }

    TraceSim trace_sim(setup, scale);
    {
        obs::TraceSpan span("trace-sim " + workload, "traceSim");
        result.placement =
            trace_sim.run(trace, stateful ? &hooks : nullptr);
    }
    if (result.placement.resumedFromPhase > 0)
        cache.notePartialHit(static_cast<std::uint64_t>(
            result.placement.resumedFromPhase));

    // §IV-A3 literally: one timing simulation per phase, fanned out
    // over the worker pool and merged in phase order.
    TimingOptions options;
    options.independentPhases = true;
    TimingSim timing(setup, scale, options);
    {
        obs::TraceSpan span("timing-sim " + workload, "timingSim");
        result.metrics = timing.run(trace, result.placement);
    }

    if (use_cache) {
        std::vector<std::uint8_t> payload =
            encodeResultBundle(result);
        if (store->putObject(rkey, payload))
            cache.noteBytesWritten(payload.size());
        cache.noteResultMiss();
        cache.noteMissNanos(cacheNowNanos() - miss_t0);
    }

    observeRun(workload + "." + setup.name, result.metrics, timing,
               result.placement);
    return result;
}

// Deliberately uncached beyond the shared step-A trace tier: the
// single-socket normalization run has no setup axis to sweep (one
// cell per workload), so a result bundle would only duplicate the
// trace tier's savings for extra key-schema surface.
RunMetrics
runSingleSocket(const std::string &workload, const SimScale &scale)
{
    obs::TraceSpan exp_span(
        workload + " / single-socket", "experiment",
        obs::TraceArgs().add("workload", workload).str());
    const trace::WorkloadTrace &trace = workloadTrace(workload, scale);

    SystemSetup setup = SystemSetup::baseline();
    TraceSim trace_sim(setup, scale);
    TraceSimResult placement = trace_sim.run(trace);

    TimingOptions options;
    options.singleSocketLocal = true;
    options.independentPhases = true;
    TimingSim timing(setup, scale, options);
    RunMetrics m = timing.run(trace, placement);

    // The reference reports no traceSim stats subtree: every access
    // is local, so the placement engine's counters describe nothing
    // the timing run used.
    placement.stats = obs::Snapshot();
    observeRun(workload + ".single-socket", m, timing, placement);
    return m;
}

} // namespace driver
} // namespace starnuma
