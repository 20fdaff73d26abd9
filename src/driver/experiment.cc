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
#include "sim/obs/audit.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/timeseries.hh"
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

// Experiment-result bundle format v1 ("STARRES1"): the run's
// metrics, the step-B artifact (checkpoint format v2, embedded via
// TraceSimResult::serialize), and the two registry snapshots the
// StatsSink would otherwise re-derive from live objects. Varint
// coded with sim/bytes.hh; doubles keep their exact IEEE bits, so a
// warm run's stats output is byte-identical to the cold run that
// wrote the bundle.
constexpr std::uint64_t resultBundleMagic = 0x5354415252455331ULL;

void
encodeSnapshot(std::vector<std::uint8_t> &buf,
               const obs::Snapshot &s)
{
    putVarint(buf, s.values().size());
    for (const auto &[path, value] : s.values()) {
        putString(buf, path);
        putString(buf, value);
    }
}

bool
decodeSnapshot(ByteReader &r, obs::Snapshot &s)
{
    std::uint64_t n = 0;
    if (!r.getVarint(n) || n > r.remaining())
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string path, value;
        if (!r.getString(path) || !r.getString(value))
            return false;
        // Stored pre-formatted: re-formatting restored values
        // would be a second rounding decision (registry.hh).
        s.setFormatted(path, value);
    }
    return true;
}

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
encodeResultBundle(const ExperimentResult &result,
                   const obs::Snapshot &timing_stats)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, resultBundleMagic);
    encodeMetrics(buf, result.metrics);
    std::vector<std::uint8_t> placement =
        result.placement.serialize();
    buf.insert(buf.end(), placement.begin(), placement.end());
    encodeSnapshot(buf, result.placement.stats);
    encodeSnapshot(buf, timing_stats);
    return buf;
}

// lint: cold-path once per experiment, cache-enabled runs only
bool
decodeResultBundle(const std::vector<std::uint8_t> &payload,
                   ExperimentResult &result,
                   obs::Snapshot &timing_stats)
{
    ByteReader r(payload.data(), payload.size());
    std::uint64_t magic = 0;
    return r.getVarint(magic) && magic == resultBundleMagic &&
           decodeMetrics(r, result.metrics) &&
           result.placement.deserialize(r) &&
           decodeSnapshot(r, result.placement.stats) &&
           decodeSnapshot(r, timing_stats) && r.remaining() == 0;
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
    obs::StatsSink &sink = obs::StatsSink::global();
    obs::TimeSeriesSink &ts_sink = obs::TimeSeriesSink::global();
    obs::AuditSink &audit_sink = obs::AuditSink::global();
    // Result bundles deliberately exclude the TimeSeries and Audit
    // channels (unbounded diagnostic streams): while either sink
    // observes, the experiment tier runs uncached and the phase
    // hooks stay off (trace_sim enforces the same envelope).
    const bool use_cache = store != nullptr &&
                           !ts_sink.enabled() &&
                           !audit_sink.enabled();

    ExperimentResult result;
    std::string rkey;
    if (use_cache) {
        rkey = resultKeyText(workload, setup, scale,
                             traceContentHash(*entry),
                             sink.enabled());
        std::vector<std::uint8_t> payload;
        obs::Snapshot timing_stats;
        std::uint64_t t0 = cacheNowNanos();
        if (store->fetchObject(rkey, payload) &&
            decodeResultBundle(payload, result, timing_stats)) {
            cache.noteResultHit();
            cache.noteBytesRead(payload.size());
            cache.noteHitNanos(cacheNowNanos() - t0);
            if (sink.enabled()) {
                std::string prefix =
                    workload + "." + setup.name + ".";
                sink.add(prefix + "summary.",
                         metricsSnapshot(result.metrics));
                sink.add(prefix + "timing.", timing_stats);
                sink.add(prefix + "traceSim.",
                         result.placement.stats);
            }
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
            encodeResultBundle(result, timing.stats());
        if (store->putObject(rkey, payload))
            cache.noteBytesWritten(payload.size());
        cache.noteResultMiss();
        cache.noteMissNanos(cacheNowNanos() - miss_t0);
    }

    if (sink.enabled()) {
        std::string prefix = workload + "." + setup.name + ".";
        sink.add(prefix + "summary.",
                 metricsSnapshot(result.metrics));
        sink.add(prefix + "timing.", timing.stats());
        sink.add(prefix + "traceSim.", result.placement.stats);
    }
    if (ts_sink.enabled()) {
        std::string prefix = workload + "." + setup.name + ".";
        ts_sink.add(prefix + "timing.", timing.timeseries());
        ts_sink.add(prefix + "traceSim.",
                    result.placement.timeseries);
    }
    if (audit_sink.enabled())
        audit_sink.add(workload + "." + setup.name,
                       result.placement.audit);
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

    obs::StatsSink &sink = obs::StatsSink::global();
    if (sink.enabled()) {
        std::string prefix = workload + ".single-socket.";
        sink.add(prefix + "summary.", metricsSnapshot(m));
        sink.add(prefix + "timing.", timing.stats());
    }
    obs::TimeSeriesSink &ts_sink = obs::TimeSeriesSink::global();
    if (ts_sink.enabled()) {
        std::string prefix = workload + ".single-socket.";
        ts_sink.add(prefix + "timing.", timing.timeseries());
        ts_sink.add(prefix + "traceSim.", placement.timeseries);
    }
    obs::AuditSink &audit_sink = obs::AuditSink::global();
    if (audit_sink.enabled())
        audit_sink.add(workload + ".single-socket",
                       placement.audit);
    return m;
}

} // namespace driver
} // namespace starnuma
