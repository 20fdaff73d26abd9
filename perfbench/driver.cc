/**
 * @file
 * Benchmark driver for the three-step pipeline (§IV-A). It calls
 * each layer's public entry point directly — step A
 * Workload::capture, step B TraceSim::run, step C TimingSim::run in
 * independent-phases mode — and never goes through runExperiment,
 * workloadTrace or captureWorkload, so no trace memo or on-disk
 * cache can serve a step-A trace. The kernel seed is an argument;
 * the simulator only ever sees the traces generated from it.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    --threads T [--scale sc1|tiny]
 *                    [--spans-out PATH]
 *
 * T counts every thread that runs pipeline work: T-1 pool workers
 * plus the calling thread. The last stdout line is one JSON object
 * {correct, attempted, failed, metrics}; see README.md for the
 * metrics. perfbench/run.py builds this binary and runs it with the
 * cold environment it requires (STARNUMA_TRACE_DIR=off,
 * STARNUMA_CACHE_DIR unset).
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/artifact_cache.hh"
#include "driver/experiment.hh"
#include "driver/metrics.hh"
#include "driver/system_setup.hh"
#include "driver/timing_sim.hh"
#include "driver/trace_sim.hh"
#include "sim/cas/hash.hh"
#include "sim/parallel.hh"
#include "sim/scale.hh"
#include "sim/sync.hh"
#include "trace/columnar.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace starnuma;

namespace
{

using Clock = std::chrono::steady_clock;

/** Set-up repetitions per run; setup_s is their median. */
constexpr int setupReps = 3;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process CPU seconds (user + system, every thread). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec +
                               ru.ru_stime.tv_usec) * 1e-6;
}

/**
 * Hand freed heap pages back to the kernel before each set-up
 * repetition, so that the resident-set peak is set by the data one
 * repetition holds and not by what earlier ones left in the
 * allocator's arenas.
 */
void
trimHeap()
{
    malloc_trim(0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------
// Spans: one per call into a layer, kept in memory for the run.
// ------------------------------------------------------------------

enum Layer { Capture, Replay, Timing, NumLayers };
const char *const layerNames[NumLayers] = {"capture", "replay",
                                           "timing"};

struct Span
{
    Layer layer;
    bool setup;      ///< recorded during set-up, not a measured pass
    int iteration;   ///< set-up repetition or pass index
    int kernel;
    int system;      ///< -1 for capture (shared by the kernel's cells)
    int thread;      ///< 0 = calling thread, w+1 = pool worker w
    double startS;   ///< seconds since the run started
    double endS;
    std::uint64_t work; ///< records captured/replayed, or LLC misses
};

/**
 * Span recorder. Off (no clock reads at all) except during the
 * set-up repetitions and passes the run chooses to trace.
 */
class Tracer
{
  public:
    Tracer() : epoch(Clock::now()) {}

    /** Start an iteration; spans are recorded only if @p on. */
    void
    begin(bool on_, bool setup_, int iteration_)
    {
        on = on_;
        setup = setup_;
        iteration = iteration_;
    }

    bool active() const { return on; }
    double now() const { return seconds(epoch, Clock::now()); }

    void
    record(Span s)
    {
        s.setup = setup;
        s.iteration = iteration;
        MutexLock lock(mu);
        spans_.push_back(s);
    }

    /** Every span recorded; call only once all work has joined. */
    std::vector<Span>
    spans()
    {
        MutexLock lock(mu);
        return spans_;
    }

  private:
    Clock::time_point epoch;
    // Written only between iterations, while no task is in flight.
    bool on = false;
    bool setup = false;
    int iteration = 0;
    Mutex mu;
    std::vector<Span> spans_ STARNUMA_GUARDED_BY(mu);
};

/** RAII span around one layer call. */
class SpanScope
{
  public:
    SpanScope(Tracer *t, Layer layer, int kernel, int system)
        : tracer(t && t->active() ? t : nullptr)
    {
        if (!tracer)
            return;
        span.layer = layer;
        span.kernel = kernel;
        span.system = system;
        span.thread = ThreadPool::currentWorker() + 1;
        span.work = 0;
        span.startS = tracer->now();
    }

    ~SpanScope()
    {
        if (!tracer)
            return;
        span.endS = tracer->now();
        tracer->record(span);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void work(std::uint64_t n) { span.work = n; }

  private:
    Tracer *tracer;
    Span span{};
};

// ------------------------------------------------------------------
// Workloads. A cell is one kernel × one SystemSetup, indexed
// kernel * systems + system.
// ------------------------------------------------------------------

enum class Kind { PaperSweepCold, TimingSweep, PlacementReplay };

/** Simulated outputs of one cell in one pass. */
struct CellOut
{
    std::uint64_t records = 0; ///< step-A records of the cell's kernel
    bool replayed = false;     ///< the pass ran step B for this cell
    driver::TraceSimResult placement;
    bool timed = false;
    driver::RunMetrics metrics;
};

/**
 * One benchmark workload: which cells it has, what set-up builds,
 * and what a measured pass runs.
 */
class Bench
{
  public:
    Bench(Kind kind_, std::uint64_t seed_, SimScale scale_,
          Tracer *tracer_)
        : kind(kind_), seed(seed_), scale(scale_), tracer(tracer_)
    {
        using driver::SystemSetup;
        switch (kind) {
          case Kind::PaperSweepCold:
            // Costliest kernels first (seed 1 at sc1), so the pool's
            // tail holds short tasks and pass time varies less.
            kernels = {"masstree", "tpcc", "fmi", "sssp",
                       "cc",       "bfs",  "tc",  "poa"};
            systems = {SystemSetup::baseline(), SystemSetup::starnuma()};
            break;
          case Kind::TimingSweep:
            // The miss-bound kernels over Fig 10/11's interconnects.
            // bfs and sssp are left out: how many misses their
            // detail windows see swings up to 100x with the seed,
            // which would make this workload measure the seed.
            kernels = {"masstree", "tpcc", "fmi"};
            systems = {SystemSetup::baseline(),
                       SystemSetup::baseline2xBW(),
                       SystemSetup::starnuma(),
                       SystemSetup::starnumaHalfBW(),
                       SystemSetup::starnumaSwitched()};
            break;
          case Kind::PlacementReplay:
            // One setup per replay path: tracker + annex engine (T16
            // and T0), PerfectPagePolicy, and the static oracle.
            kernels = workloads::workloadNames();
            systems = {SystemSetup::starnuma(),
                       SystemSetup::starnumaT0(),
                       SystemSetup::baseline(),
                       SystemSetup::starnumaStatic()};
            break;
        }
    }

    std::size_t cells() const { return kernels.size() * systems.size(); }

    std::string
    cellName(std::size_t c) const
    {
        return kernels[c / systems.size()] + "/" +
               systems[c % systems.size()].name;
    }

    const std::string &kernelOf(std::size_t c) const
    {
        return kernels[c / systems.size()];
    }

    const driver::SystemSetup &systemOf(std::size_t c) const
    {
        return systems[c % systems.size()];
    }

    /** Threads a measured pass keeps busy. */
    int
    passThreads() const
    {
        return kind == Kind::PlacementReplay
                   ? 1
                   : ThreadPool::global().size() + 1;
    }

    /** Drop the set-up products. */
    void
    clear()
    {
        traces.clear();
        placements.clear();
    }

    /**
     * Build what the measured pass takes as given: nothing for the
     * cold sweep (which instead warms the process up with one cold
     * sweep at SimScale::tiny()), traces for the replay workload,
     * traces and placements for the timing workload.
     */
    void
    setUp()
    {
        if (kind == Kind::PaperSweepCold) {
            Bench warm(kind, seed, SimScale::tiny(), nullptr);
            warm.pass();
            return;
        }
        traces.resize(kernels.size());
        ThreadPool::global().parallelFor(
            kernels.size(), [this](std::size_t k) {
                traces[k] = capture(static_cast<int>(k));
            });
        if (kind == Kind::TimingSweep) {
            placements.resize(cells());
            ThreadPool::global().parallelFor(
                cells(), [this](std::size_t c) {
                    placements[c] =
                        replay(c, traces[c / systems.size()]);
                });
        }
    }

    /** One measured pass; outputs in canonical cell order. */
    std::vector<CellOut>
    pass()
    {
        std::vector<CellOut> out(cells());
        const std::size_t n_sys = systems.size();
        switch (kind) {
          case Kind::PaperSweepCold:
            ThreadPool::global().parallelFor(
                kernels.size(), [&](std::size_t k) {
                    trace::WorkloadTrace t =
                        capture(static_cast<int>(k));
                    for (std::size_t s = 0; s < n_sys; ++s) {
                        CellOut &o = out[k * n_sys + s];
                        o.records = t.totalRecords();
                        o.placement = replay(k * n_sys + s, t);
                        o.replayed = true;
                        o.metrics = timing(k * n_sys + s, t,
                                           o.placement);
                        o.timed = true;
                    }
                });
            break;
          case Kind::TimingSweep:
            ThreadPool::global().parallelFor(
                cells(), [&](std::size_t c) {
                    const trace::WorkloadTrace &t =
                        traces[c / n_sys];
                    CellOut &o = out[c];
                    o.records = t.totalRecords();
                    o.metrics = timing(c, t, placements[c]);
                    o.timed = true;
                });
            break;
          case Kind::PlacementReplay:
            for (std::size_t c = 0; c < cells(); ++c) {
                const trace::WorkloadTrace &t = traces[c / n_sys];
                out[c].records = t.totalRecords();
                out[c].placement = replay(c, t);
                out[c].replayed = true;
            }
            break;
        }
        return out;
    }

    /**
     * The step-B output cell @p c of a pass used: its own replay, or
     * the set-up's; nullptr when the workload has none.
     */
    const driver::TraceSimResult *
    placementOf(std::size_t c, const CellOut &o) const
    {
        if (o.replayed)
            return &o.placement;
        return placements.empty() ? nullptr : &placements[c];
    }

    const std::string &kernelName(int k) const { return kernels[k]; }
    const std::string &systemName(int s) const
    {
        return systems[s].name;
    }

  private:
    trace::WorkloadTrace
    capture(int k)
    {
        SpanScope span(tracer, Capture, k, -1);
        trace::WorkloadTrace t =
            workloads::makeWorkload(kernels[k], seed)->capture(scale);
        span.work(t.totalRecords());
        return t;
    }

    driver::TraceSimResult
    replay(std::size_t c, const trace::WorkloadTrace &t)
    {
        SpanScope span(tracer, Replay,
                       static_cast<int>(c / systems.size()),
                       static_cast<int>(c % systems.size()));
        driver::TraceSim sim(systemOf(c), scale);
        driver::TraceSimResult r = sim.run(t);
        span.work(t.totalRecords());
        return r;
    }

    driver::RunMetrics
    timing(std::size_t c, const trace::WorkloadTrace &t,
           const driver::TraceSimResult &placement)
    {
        SpanScope span(tracer, Timing,
                       static_cast<int>(c / systems.size()),
                       static_cast<int>(c % systems.size()));
        driver::TimingOptions options;
        options.independentPhases = true;
        driver::TimingSim sim(systemOf(c), scale, options);
        driver::RunMetrics m = sim.run(t, placement);
        span.work(m.memAccesses);
        return m;
    }

    Kind kind;
    std::uint64_t seed;
    SimScale scale;
    Tracer *tracer;
    std::vector<std::string> kernels;
    std::vector<driver::SystemSetup> systems;
    std::vector<trace::WorkloadTrace> traces;       ///< set-up product
    std::vector<driver::TraceSimResult> placements; ///< set-up product
};

// ------------------------------------------------------------------
// Output checks and the result digest.
// ------------------------------------------------------------------

/** Failed invariants of one cell (empty when it passes). */
std::vector<std::string>
checkCell(const Bench &b, std::size_t c, const CellOut &o)
{
    std::vector<std::string> bad;
    if (o.records == 0)
        bad.push_back("capture produced no records");
    if (o.timed) {
        if (!std::isfinite(o.metrics.ipc) || o.metrics.ipc <= 0.0)
            bad.push_back("IPC not finite and positive");
        double mix = 0.0;
        for (double v : o.metrics.mix)
            mix += v;
        // A cell whose detail windows see no miss has no mix: bfs at
        // some seeds (20 is one) finishes its traversal before them.
        const double want = o.metrics.memAccesses > 0 ? 1.0 : 0.0;
        if (!(std::fabs(mix - want) <= 1e-9)) {
            char why[96];
            std::snprintf(why, sizeof(why),
                          "access mix sums to %.17g over %llu misses",
                          mix,
                          static_cast<unsigned long long>(
                              o.metrics.memAccesses));
            bad.push_back(why);
        }
    }
    // EXPERIMENTS.md: POA is fully partitioned and never migrates.
    const driver::TraceSimResult *p = b.placementOf(c, o);
    if (b.kernelOf(c) == "poa" &&
        ((p && p->migratedPagesTotal != 0) ||
         (o.timed && o.metrics.migratedPages != 0)))
        bad.push_back("poa migrated pages");
    return bad;
}

/** Digest of every simulated output of a pass, in cell order. */
std::string
digest(const Bench &b, const std::vector<CellOut> &outs)
{
    cas::Hasher h;
    for (std::size_t c = 0; c < outs.size(); ++c) {
        const CellOut &o = outs[c];
        h.update(b.cellName(c));
        h.update(std::to_string(o.records));
        if (const driver::TraceSimResult *p = b.placementOf(c, o))
            h.update(p->serialize());
        if (!o.timed)
            continue;
        obs::Snapshot snap = driver::metricsSnapshot(o.metrics);
        for (const auto &[key, value] : snap.values()) {
            h.update(key);
            h.update(value);
        }
    }
    return h.digest().hex();
}

// ------------------------------------------------------------------
// Metrics.
// ------------------------------------------------------------------

using Metrics = std::map<std::string, std::pair<double, std::string>>;

/** Simulated counts over one pass's cells (identical every pass). */
void
simulatedCounts(const Bench &b, const std::vector<CellOut> &outs,
                Metrics &m)
{
    double migrated = 0, shootdowns = 0, pool_frac = 0, pooled = 0;
    double misses = 0, hits = 0, dir = 0, bt = 0, link_q = 0,
           dram_q = 0, timed = 0;
    std::map<std::string, double> base_ipc, star_ipc;
    for (std::size_t c = 0; c < outs.size(); ++c) {
        const CellOut &o = outs[c];
        if (const driver::TraceSimResult *p = b.placementOf(c, o)) {
            migrated += static_cast<double>(p->migratedPagesTotal);
            shootdowns += static_cast<double>(p->tlbShootdownsSent);
            if (b.systemOf(c).sys.hasPool &&
                b.systemOf(c).placement ==
                    driver::Placement::FirstTouchDynamic) {
                pool_frac += p->poolMigrationFraction;
                pooled += 1;
            }
        }
        if (o.timed) {
            misses += static_cast<double>(o.metrics.memAccesses);
            hits += static_cast<double>(o.metrics.llcHits);
            dir += static_cast<double>(o.metrics.coherenceTransactions);
            bt += static_cast<double>(o.metrics.blockTransfers);
            link_q += o.metrics.meanLinkQueueNs;
            dram_q += o.metrics.meanDramQueueNs;
            timed += 1;
            const std::string &sys = b.systemOf(c).name;
            if (sys == driver::SystemSetup::baseline().name)
                base_ipc[b.kernelOf(c)] = o.metrics.ipc;
            if (sys == driver::SystemSetup::starnuma().name)
                star_ipc[b.kernelOf(c)] = o.metrics.ipc;
        }
    }
    double log_sum = 0;
    int pairs = 0;
    for (const auto &[kernel, ipc] : star_ipc)
        if (base_ipc.count(kernel) && base_ipc[kernel] > 0) {
            log_sum += std::log(ipc / base_ipc[kernel]);
            ++pairs;
        }
    m["replay.migrated_pages"] = {migrated, "count"};
    m["replay.shootdowns_sent"] = {shootdowns, "count"};
    m["replay.pool_migration_frac"] = {
        pooled > 0 ? pool_frac / pooled : 0.0, "fraction"};
    m["timing.llc_misses"] = {misses, "count"};
    m["timing.llc_hits"] = {hits, "count"};
    m["timing.dir_transactions"] = {dir, "count"};
    m["timing.block_transfers"] = {bt, "count"};
    m["timing.link_queue_ns"] = {timed > 0 ? link_q / timed : 0.0,
                                 "ns"};
    m["timing.dram_queue_ns"] = {timed > 0 ? dram_q / timed : 0.0,
                                 "ns"};
    m["model.speedup_geomean"] = {
        pairs > 0 ? std::exp(log_sum / pairs) : 0.0, "x"};
}

/** Host time and work per layer over a set of spans. */
struct LayerSum
{
    double hostS = 0;
    double work = 0;
    bool any = false;
};

/**
 * Per-layer host metrics of traced pass @p pass. A layer that did
 * no work in the pass (capture on the timing and replay workloads,
 * replay on the timing workload) is reported from its last set-up
 * repetition instead; one that ran in neither reports zeros.
 */
Metrics
layerMetrics(const std::vector<Span> &spans, int pass,
             double pass_wall, double pass_cpu, int threads)
{
    LayerSum in_pass[NumLayers], in_setup[NumLayers];
    for (const Span &s : spans) {
        LayerSum *sum = nullptr;
        if (!s.setup && s.iteration == pass)
            sum = &in_pass[s.layer];
        else if (s.setup && s.iteration == setupReps - 1)
            sum = &in_setup[s.layer];
        if (!sum)
            continue;
        sum->hostS += s.endS - s.startS;
        sum->work += static_cast<double>(s.work);
        sum->any = true;
    }
    double spanned = 0;
    for (const LayerSum &l : in_pass)
        spanned += l.hostS;

    auto pick = [&](Layer l) {
        return in_pass[l].any ? in_pass[l] : in_setup[l];
    };
    auto rate = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    LayerSum cap = pick(Capture), rep = pick(Replay),
             tim = pick(Timing);
    Metrics m;
    m["capture.host_s"] = {cap.hostS, "s"};
    m["capture.records"] = {cap.work, "count"};
    m["capture.records_per_s"] = {rate(cap.work, cap.hostS), "1/s"};
    m["capture.trace_mb"] = {cap.work * sizeof(trace::MemRecord) / 1e6,
                             "MB"};
    m["replay.host_s"] = {rep.hostS, "s"};
    m["replay.records_per_s"] = {rate(rep.work, rep.hostS), "1/s"};
    m["timing.host_s"] = {tim.hostS, "s"};
    m["timing.misses_per_s"] = {rate(tim.work, tim.hostS), "1/s"};
    m["timing.host_ns_per_miss"] = {rate(tim.hostS * 1e9, tim.work),
                                    "ns"};
    m["pool.busy_frac"] = {rate(spanned, threads * pass_wall),
                           "fraction"};
    m["pool.cpu_s"] = {pass_cpu, "s"};
    m["driver.unspanned_s"] = {threads * pass_wall - spanned, "s"};
    return m;
}

void
writeSpans(const std::string &path, const Bench &b,
           const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::string cell = b.kernelName(s.kernel);
        if (s.system >= 0)
            cell += "/" + b.systemName(s.system);
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s%d\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"cell\": \"%s\", \"work\": %llu}}%s\n",
                     layerNames[s.layer], s.setup ? "setup" : "pass",
                     s.iteration, s.thread, s.startS * 1e6,
                     (s.endS - s.startS) * 1e6, cell.c_str(),
                     static_cast<unsigned long long>(s.work),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench_driver --workload "
                 "paper_sweep_cold|timing_sweep|placement_replay "
                 "--seed N --seconds S --trace 0|1 --threads T "
                 "[--scale sc1|tiny] [--spans-out PATH]\n",
                 why);
    std::exit(2);
}

/** Capture content hash of one kernel at SimScale::tiny(). */
cas::Hash128
tinyTraceHash(std::uint64_t seed)
{
    return cas::hashBytes(trace::encodeColumnar(
        workloads::makeWorkload("bfs", seed)->capture(
            SimScale::tiny())));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            usage("arguments come in --name value pairs");
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0)
        usage("arguments come in --name value pairs");
    for (const char *required :
         {"workload", "seed", "seconds", "trace", "threads"})
        if (!args.count(required))
            usage((std::string("missing --") + required).c_str());

    const std::string workload = args["workload"];
    Kind kind;
    if (workload == "paper_sweep_cold")
        kind = Kind::PaperSweepCold;
    else if (workload == "timing_sweep")
        kind = Kind::TimingSweep;
    else if (workload == "placement_replay")
        kind = Kind::PlacementReplay;
    else
        usage("unknown workload");
    const std::uint64_t seed = std::strtoull(args["seed"].c_str(),
                                             nullptr, 10);
    const double budget = std::atof(args["seconds"].c_str());
    const bool traced = args["trace"] == "1";
    const int threads = std::atoi(args["threads"].c_str());
    if (threads < 2)
        usage("--threads counts the caller plus at least one worker");
    SimScale scale = SimScale::sc1();
    if (args.count("scale") && args["scale"] == "tiny")
        scale = SimScale::tiny();
    else if (args.count("scale") && args["scale"] != "sc1")
        usage("unknown scale");

    // Cold means cold: no on-disk trace cache, no artifact store.
    const char *trace_dir = std::getenv("STARNUMA_TRACE_DIR");
    if (!trace_dir || std::string(trace_dir) != "off" ||
        std::getenv("STARNUMA_CACHE_DIR")) {
        std::fprintf(stderr, "perfbench: requires "
                             "STARNUMA_TRACE_DIR=off and "
                             "STARNUMA_CACHE_DIR unset\n");
        return 2;
    }

    ThreadPool::setGlobalThreads(threads - 1);
    Tracer tracer;
    Bench bench(kind, seed, scale, &tracer);

    std::vector<double> setup_s;
    for (int rep = 0; rep < setupReps; ++rep) {
        bench.clear();
        trimHeap();
        tracer.begin(traced, true, rep);
        Clock::time_point t0 = Clock::now();
        bench.setUp();
        setup_s.push_back(seconds(t0, Clock::now()));
    }

    // Measured passes while another one fits the budget (at the mean
    // pass time so far). A traced run alternates untraced and traced
    // passes, so the difference of their medians is the tracing
    // overhead.
    std::vector<double> walls, traced_walls;
    std::vector<Metrics> traced_layers;
    std::vector<CellOut> first;
    std::string first_digest;
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    const int min_passes = traced ? 2 : 1;
    Clock::time_point start = Clock::now();
    for (int p = 0;; ++p) {
        double elapsed = seconds(start, Clock::now());
        if (p >= min_passes && elapsed + elapsed / p > budget)
            break;
        const bool trace_pass = traced && p % 2 == 1;
        tracer.begin(trace_pass, false, p);
        double cpu0 = cpuSeconds();
        Clock::time_point t0 = Clock::now();
        std::vector<CellOut> outs = bench.pass();
        double wall = seconds(t0, Clock::now());
        double cpu = cpuSeconds() - cpu0;
        std::fprintf(stderr, "perfbench: pass %d%s wall %.3f s cpu %.3f s\n",
                     p, trace_pass ? " (traced)" : "", wall, cpu);

        for (std::size_t c = 0; c < outs.size(); ++c) {
            ++attempted;
            std::vector<std::string> bad = checkCell(bench, c, outs[c]);
            if (!bad.empty())
                ++failed;
            for (const std::string &why : bad)
                std::fprintf(stderr, "perfbench: %s: %s\n",
                             bench.cellName(c).c_str(), why.c_str());
        }
        std::string d = digest(bench, outs);
        if (p == 0) {
            first_digest = d;
            first = std::move(outs);
        } else if (d != first_digest) {
            std::fprintf(stderr, "perfbench: pass %d digest %s "
                                 "differs from pass 0 (%s)\n",
                         p, d.c_str(), first_digest.c_str());
            correct = false;
        }

        if (trace_pass) {
            traced_walls.push_back(wall);
            traced_layers.push_back(layerMetrics(
                tracer.spans(), p, wall, cpu, bench.passThreads()));
        } else {
            walls.push_back(wall);
        }
    }

    // Seed handling: another seed must give another trace.
    if (tinyTraceHash(seed) == tinyTraceHash(seed + 1)) {
        std::fprintf(stderr, "perfbench: seeds %llu and %llu gave "
                             "the same trace\n",
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(seed + 1));
        correct = false;
    }

    // Nothing may have come from a cache.
    driver::ArtifactCache &cache = driver::ArtifactCache::global();
    if (cache.enabled() || cache.traceHits() || cache.resultHits() ||
        cache.partialHits() || driver::workloadTraceCaptures() != 0) {
        std::fprintf(stderr, "perfbench: a cache served this run\n");
        correct = false;
    }

    Metrics metrics;
    if (traced) {
        for (const auto &[name, value] : traced_layers.front()) {
            std::vector<double> v;
            for (const Metrics &m : traced_layers)
                v.push_back(m.at(name).first);
            metrics[name] = {median(v), value.second};
        }
        simulatedCounts(bench, first, metrics);
        metrics["trace.overhead_s"] = {
            median(traced_walls) - median(walls), "s"};
        if (args.count("spans-out"))
            writeSpans(args["spans-out"], bench, tracer.spans());
    } else {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics["wall_s"] = {median(walls), "s"};
        metrics["setup_s"] = {median(setup_s), "s"};
        metrics["peak_rss_mb"] = {
            static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6, "MB"};
    }

    std::printf("perfbench: workload=%s seed=%llu threads=%d passes=%zu "
                "digest=%s\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                threads, walls.size() + traced_walls.size(),
                first_digest.c_str());
    std::string body;
    for (const auto &[name, value] : metrics) {
        double v = value.first;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         name.c_str());
            correct = false;
            v = 0.0;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        body += (body.empty() ? "\"" : ", \"") + name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                value.second + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                correct && failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), body.c_str());
    return 0;
}
