/**
 * @file
 * Process-wide handle on the persistent artifact store plus the
 * counters of its two tiers (step-A traces, experiment results) and
 * the store audit (DESIGN.md §16). The store is the simulator's only
 * on-disk persistence. Off by default; enabled by STARNUMA_CACHE_DIR
 * (read once; ""/"0"/"off" keep it disabled) or explicitly via
 * enable() from benches and tests.
 *
 * Thread safety: the store pointer is published under a Mutex and
 * held by shared_ptr so concurrent sweep entries can keep using a
 * store across a disable(); counters are relaxed atomics (pure
 * event counts, read only after the sweep's join barrier).
 */

#ifndef STARNUMA_DRIVER_ARTIFACT_CACHE_HH
#define STARNUMA_DRIVER_ARTIFACT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/cas/store.hh"
#include "sim/sync.hh"

namespace starnuma
{

namespace obs
{
class Registry;
class Snapshot;
} // namespace obs

namespace driver
{

/** Which cache tier served (or missed) a request. */
class ArtifactCache
{
  public:
    static ArtifactCache &global();

    /**
     * The active store, or nullptr when caching is disabled. The
     * first call consults STARNUMA_CACHE_DIR.
     */
    std::shared_ptr<cas::Store> store();

    /** Point the cache at @p dir (benches, tests). */
    void enable(const std::string &dir);

    /** Drop the store; subsequent runs are uncached. */
    void disable();

    bool enabled() { return store() != nullptr; }

    // --- cache-tier event counters ---
    // step-A traces
    void noteTraceHit() { bump(traceHits_); }
    void noteTraceMiss() { bump(traceMisses_); }
    // full experiment-result bundles
    void noteResultHit() { bump(resultHits_); }
    void noteResultMiss() { bump(resultMisses_); }
    void noteBytesRead(std::uint64_t n)
    {
        bytesRead_.fetch_add(n, std::memory_order_relaxed);
    }
    void noteBytesWritten(std::uint64_t n)
    {
        bytesWritten_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Wall time attributed to a tier ("hit" time is spent loading
     * and verifying stored artifacts, "miss" time recomputing).
     * Host-profiling channel only — never part of deterministic
     * artifacts (same contract as the thread-pool uptime gauges).
     */
    void noteHitNanos(std::uint64_t n)
    {
        hitNanos_.fetch_add(n, std::memory_order_relaxed);
    }
    void noteMissNanos(std::uint64_t n)
    {
        missNanos_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t traceHits() const { return get(traceHits_); }
    std::uint64_t traceMisses() const { return get(traceMisses_); }
    std::uint64_t resultHits() const { return get(resultHits_); }
    std::uint64_t resultMisses() const
    {
        return get(resultMisses_);
    }
    // Always 0: no tier serves part of a cell. Kept only for the
    // cache-served check in perfbench/driver.cc; the next change to
    // the benchmark drops that call and this stub.
    std::uint64_t partialHits() const { return 0; }
    std::uint64_t bytesRead() const { return get(bytesRead_); }
    std::uint64_t bytesWritten() const
    {
        return get(bytesWritten_);
    }
    std::uint64_t hitNanos() const { return get(hitNanos_); }
    std::uint64_t missNanos() const { return get(missNanos_); }

    /** Zero every counter (benches isolate cold/warm passes). */
    void resetCounters();

    /**
     * Register every counter under @p prefix (hit/miss counts,
     * bytes, tier seconds) so starnuma_report.py can
     * attribute sweep time to cache tiers.
     */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    ArtifactCache() = default;

    static void bump(std::atomic<std::uint64_t> &c)
    {
        c.fetch_add(1, std::memory_order_relaxed);
    }
    static std::uint64_t get(const std::atomic<std::uint64_t> &c)
    {
        return c.load(std::memory_order_relaxed);
    }

    Mutex mu;
    bool initialized STARNUMA_GUARDED_BY(mu) = false;
    std::shared_ptr<cas::Store> store_ STARNUMA_GUARDED_BY(mu);

    std::atomic<std::uint64_t> traceHits_{0};
    std::atomic<std::uint64_t> traceMisses_{0};
    std::atomic<std::uint64_t> resultHits_{0};
    std::atomic<std::uint64_t> resultMisses_{0};
    std::atomic<std::uint64_t> bytesRead_{0};
    std::atomic<std::uint64_t> bytesWritten_{0};
    std::atomic<std::uint64_t> hitNanos_{0};
    std::atomic<std::uint64_t> missNanos_{0};
};

/** auditStore's verdict on one stored object. */
enum class ObjectStatus { Ok, Stale, Invalid };

/** auditStore's verdicts, one per object in path order. */
struct StoreAudit {
    struct Object {
        std::string rel;  ///< path relative to the store directory
        std::string kind; ///< the key's kind ("" when invalid)
        ObjectStatus status;
    };
    std::vector<Object> objects;
    std::size_t ok = 0, stale = 0, invalid = 0;
};

/**
 * Audit every object of @p store: invalid when the store cannot
 * decode it or its filename does not hash its embedded key, stale
 * when its code.epoch is not cas::codeEpoch(), ok otherwise. The
 * verdicts describe the store as found; then @p dropBad deletes the
 * stale and invalid objects and @p maxBytes trims oldest-first.
 */
StoreAudit auditStore(cas::Store &store, bool dropBad = false,
                      std::optional<std::uint64_t> maxBytes = {});

/**
 * Snapshot of the cache counters for the "sweep.cache." stats
 * subtree (driver/sweep.cc adds it while the RunSink observes a
 * cache-enabled sweep).
 */
obs::Snapshot sweepCacheSnapshot();

/**
 * Monotonic nanoseconds for cache-tier time attribution. Like the
 * thread pool's uptime gauges this is a host-profiling channel
 * only: the values feed noteHitNanos/noteMissNanos and never enter
 * deterministic simulation artifacts.
 */
std::uint64_t cacheNowNanos();

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_ARTIFACT_CACHE_HH
