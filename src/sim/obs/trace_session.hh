/**
 * @file
 * Chrome trace_event / Perfetto-compatible tracing. A TraceSession
 * buffers pre-serialized JSON events and writes one
 * {"traceEvents":[...]} file (open it in https://ui.perfetto.dev or
 * chrome://tracing). Three timelines, kept apart by pid:
 *
 *  pid 1 "host":      wall-clock duration events ("ph":"X") for
 *                     experiments, phases, and pool tasks, one tid
 *                     per pool worker (tid 0 = the calling thread);
 *                     plus instant events ("ph":"i") for each
 *                     migration decision.
 *  pid 2 "simulated": counter events ("ph":"C") sampled on the
 *                     simulated clock (ts = simulated ns), one tid
 *                     per phase — link utilization and DRAM queue
 *                     depth per pacer epoch.
 *
 * Off by default; obs::RunSink (sim/obs/obs.hh) starts, stops and
 * writes the session as the run directory's trace.json. Every
 * emission site guards on enabled() (a relaxed atomic load), so an
 * unobserved run pays one branch per would-be event. Timestamps are
 * wall clock only inside this file — they never reach simulation
 * results.
 */

#ifndef STARNUMA_SIM_OBS_TRACE_SESSION_HH
#define STARNUMA_SIM_OBS_TRACE_SESSION_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/annotations.hh"
#include "sim/sync.hh"

namespace starnuma
{
namespace obs
{

/** Trace pids: host wall-clock timeline vs simulated-clock
 *  timeline. */
constexpr int tracePidHost = 1;
constexpr int tracePidSim = 2;

/** Incremental builder for a trace event's "args" object. */
class TraceArgs
{
  public:
    TraceArgs &add(const char *key, std::uint64_t v);
    TraceArgs &add(const char *key, std::int64_t v);
    TraceArgs &add(const char *key, int v);
    TraceArgs &add(const char *key, double v);
    TraceArgs &add(const char *key, const std::string &v);

    /** Append @p value verbatim (must already be valid JSON). */
    TraceArgs &addRaw(const char *key, const std::string &value);

    /** The assembled {"k":v,...} object ("{}" when empty). */
    std::string str() const;

  private:
    std::string body;
};

/** The process-wide trace buffer. */
class TraceSession
{
  public:
    static TraceSession &global();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Microseconds of wall clock since start(). */
    double nowUs() const;

    /** Host-timeline tid of the calling thread (pool worker + 1,
     *  0 for any non-pool thread). */
    static int hostTid();

    // --- emission (callers should pre-check enabled()) ---

    /** Complete duration event ("ph":"X") on the host timeline. */
    void completeEvent(const std::string &name, const char *cat,
                       double ts_us, double dur_us, int tid,
                       const std::string &args = "");

    /** Thread-scoped instant event ("ph":"i") at @p ts_us. */
    void instantEvent(const std::string &name, const char *cat,
                      double ts_us, int pid, int tid,
                      const std::string &args = "");

    /** Instant event on the host timeline, now, current worker. */
    void instantNow(const std::string &name, const char *cat,
                    const std::string &args = "");

    /** Counter event ("ph":"C"); series live in @p args. */
    void counterEvent(const std::string &name, double ts_us,
                      int pid, int tid, const std::string &args);

    /** Metadata event naming a process or thread. */
    void nameProcess(int pid, const std::string &name);
    void nameThread(int pid, int tid, const std::string &name);

    /** Events buffered so far. */
    std::size_t eventCount() const;

  private:
    // The run sink is the one switch: only it starts, stops and
    // writes the session.
    friend class RunSink;

    TraceSession() = default;

    /** Enable tracing; clears any buffered events. */
    void start();

    /** Disable and drop buffered events. */
    void stop();

    /**
     * Write {"traceEvents":[...]} to @p path, appending a final
     * thread-pool profile counter when the pool exists.
     * @return false on IO error.
     */
    bool writeTo(const std::string &path);

    void push(std::string event);
    void appendPoolProfile();

    mutable Mutex mu;
    // Same relaxed-gate pattern as RunSink::enabled_ (obs.hh):
    // one relaxed load per would-be event; the buffer is protected
    // by mu, and push() re-checks under the lock.
    std::atomic<bool> enabled_{false};
    // Written by start() and read lock-free by every nowUs() call;
    // relaxed is fine because timestamps are host-domain
    // diagnostics: a racing start() can only skew the very first
    // spans' timestamps, never simulation results.
    std::atomic<std::uint64_t> epochNs{0};
    std::vector<std::string> events STARNUMA_GUARDED_BY(mu);
};

/**
 * RAII duration span on the host timeline. Construction and
 * destruction cost one branch each when tracing is off.
 */
class TraceSpan
{
  public:
    TraceSpan(std::string name, const char *cat,
              std::string args = "");
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    std::string name_;
    const char *cat_;
    std::string args_;
    double startUs = 0;
    bool active = false;
};

} // namespace obs
} // namespace starnuma

#endif // STARNUMA_SIM_OBS_TRACE_SESSION_HH
