/**
 * @file
 * The one observability switch (DESIGN.md §9). A process-wide
 * RunSink collects every channel of a run and writes them under
 * fixed names into one run directory:
 *
 *   stats.json       deterministic obs::Snapshot, sorted-key JSON
 *   timeseries.json  deterministic per-epoch obs::TimeSeries
 *   audit.csv        deterministic Algorithm-1 obs::AuditLog rows
 *   trace.json       wall-clock Chrome trace (obs::TraceSession)
 *
 * Off by default and zero-overhead when off: every emission site
 * is guarded by one relaxed atomic load. STARNUMA_OBS_DIR=<dir>
 * (bench flag --obs-dir=<dir>) turns every channel on at once and
 * an atexit hook writes the directory. Experiments contribute under
 * a "<workload>.<setup>" run key, and each export sorts by key, so
 * the three deterministic files are byte-identical for any
 * STARNUMA_THREADS.
 *
 * Wall-clock readings are confined to trace.json. Thread-pool
 * self-profiling is genuinely schedule-dependent, so it lands in
 * the trace too (ThreadPool::registerStats, built on demand), never
 * in the deterministic files.
 */

#ifndef STARNUMA_SIM_OBS_OBS_HH
#define STARNUMA_SIM_OBS_OBS_HH

#include <atomic>
#include <map>
#include <string>

#include "sim/annotations.hh"
#include "sim/obs/audit.hh"
#include "sim/obs/registry.hh"
#include "sim/obs/timeseries.hh"
#include "sim/sync.hh"

namespace starnuma
{
namespace obs
{

/**
 * Aggregates every observability channel across the experiments of
 * the process. Thread safe: concurrent sweep entries add under
 * distinct run keys, and every export is sorted by key, so the
 * written files are independent of completion order.
 */
class RunSink
{
  public:
    /**
     * The process-wide sink. First use starts it when
     * STARNUMA_OBS_DIR names a directory.
     */
    static RunSink &global();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Turn every channel on, trace session included, dropping
     * anything collected so far. write() targets @p dir ("" =
     * collect only); the first start with a directory registers
     * the atexit write().
     */
    void start(const std::string &dir);

    /** Turn every channel off and drop everything collected. */
    void stop();

    /** Merge stats @p s in under @p prefix (no-op when off). */
    void add(const std::string &prefix, const Snapshot &s);

    /** Merge @p series in under @p prefix (no-op when off). */
    void add(const std::string &prefix, const TimeSeries &series);

    /** Take @p log in under run key @p run (no-op when off). */
    void add(const std::string &run, const AuditLog &log);

    /** The collected stats.json content. */
    Snapshot stats() const;

    /** The collected timeseries.json content. */
    TimeSeries timeseries() const;

    /** The collected audit.csv text (header, then runs sorted). */
    std::string auditCsv() const;

    /**
     * Create the run directory and write the four files into it.
     * @return false on IO error; true when there is nothing to do.
     */
    bool write() const;

  private:
    RunSink() = default;

    mutable Mutex mu;
    // Relaxed is load-bearing here: enabled_ is only the emission
    // gate ("is anyone collecting?"), checked once per would-be
    // emission — the zero-overhead-when-disabled contract. It never
    // publishes data; every access to the data it gates happens
    // under mu, whose acquire/release provides the ordering. A
    // start()/stop() racing an add() can at worst admit or drop
    // that one contribution, which toggling mid-run means anyway;
    // add() re-checks under the lock so nothing ever lands in a
    // sink that stop() already cleared.
    std::atomic<bool> enabled_{false};
    std::string dir_ STARNUMA_GUARDED_BY(mu);
    Snapshot stats_ STARNUMA_GUARDED_BY(mu);
    TimeSeries series_ STARNUMA_GUARDED_BY(mu);
    std::map<std::string, AuditLog> audit_ STARNUMA_GUARDED_BY(mu);
};

/**
 * The one observability gate: true while the run sink collects.
 * Also gates host-side wall-clock readings (thread-pool busy-time
 * clocks). One relaxed load per check.
 */
bool hostProfilingEnabled();

} // namespace obs
} // namespace starnuma

#endif // STARNUMA_SIM_OBS_OBS_HH
