/**
 * @file
 * Fixed-size work-queue thread pool with deterministic fan-out
 * helpers. Experiments, per-phase timing simulations, and sweep
 * entries are independent tasks: parallelFor() hands indexed work
 * items to the pool and the calling thread, and parallelMap()
 * collects results in canonical index order, so the merged output
 * of a parallel run is bitwise-identical to a serial one. The
 * calling thread always participates in executing its own batch,
 * which makes nested fan-outs (a sweep entry that itself
 * parallelizes its phases) deadlock-free on a fixed-size pool.
 *
 * The process-wide pool size comes from STARNUMA_THREADS (default:
 * the hardware concurrency).
 */

#ifndef STARNUMA_SIM_PARALLEL_HH
#define STARNUMA_SIM_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/annotations.hh"
#include "sim/sync.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

/** Work-queue executor over a fixed set of worker threads. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means defaultThreads(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (callers add one more). */
    int size() const { return static_cast<int>(workers.size()); }

    /** STARNUMA_THREADS when set, else hardware concurrency. */
    static int defaultThreads();

    /** The process-wide shared pool. */
    static ThreadPool &global();

    /**
     * The process-wide pool, or nullptr when no call has created it
     * yet. Lets shutdown-time observers (the trace writer) read the
     * pool profile without instantiating workers as a side effect.
     */
    static ThreadPool *globalIfCreated();

    /**
     * Pool-worker index of the calling thread: 0..size()-1 on a
     * worker, -1 on any other thread (including callers executing
     * their own parallelFor batch).
     */
    static int currentWorker();

    /**
     * Replace the process-wide pool with one of @p threads workers
     * (0 restores the default size). Must only be called while no
     * tasks are in flight; intended for tests that compare pool
     * sizes.
     */
    static void setGlobalThreads(int threads);

    /**
     * Run fn(0) .. fn(n-1), each call exactly once, distributed
     * over the workers and the calling thread; returns when all n
     * calls have finished. Tasks must be independent of each other
     * (and of execution order); any determinism requirement is then
     * met by construction regardless of the pool size.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Deterministic fan-out: out[i] = fn(i) with out in canonical
     * index order, however the calls were scheduled.
     */
    template <typename T, typename F>
    std::vector<T>
    parallelMap(std::size_t n, F &&fn)
    {
        std::vector<T> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    // --- self-profiling (DESIGN.md §9) ---

    /** Accumulated execution profile of one claimant slot. */
    struct WorkerProfile
    {
        std::uint64_t tasks = 0;  ///< indexed calls executed
        std::uint64_t busyNs = 0; ///< wall time inside those calls
                                  ///< (0 unless profiling enabled)
    };

    /**
     * Per-claimant profile: index 0 aggregates every caller thread
     * participating in its own batch, index w+1 is pool worker w.
     * Task counts are always maintained (one relaxed increment per
     * task); busy wall-time is only clocked while
     * obs::hostProfilingEnabled() — the zero-overhead-when-disabled
     * contract.
     */
    std::vector<WorkerProfile> profile() const;

    /** Largest batch-queue length observed at enqueue time. */
    std::uint64_t peakQueueDepth() const;

    /** Batches handed to the queue since construction. */
    std::uint64_t batchesEnqueued() const;

    /** Wall nanoseconds since the pool was constructed. */
    std::uint64_t upNs() const;

    /**
     * Register the pool profile under @p prefix: per-slot task
     * counts, busy time, and busy fraction of the pool's uptime,
     * plus queue-depth diagnostics. Host-domain (schedule-
     * dependent) data: lands in the trace artifact, never in the
     * deterministic stats file.
     */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    /** One indexed fan-out: claim next, run fn(next), count done. */
    struct Batch
    {
        std::function<void(std::size_t)> fn;
        std::size_t n = 0;
        std::size_t next = 0; ///< first unclaimed index (under mu)
        std::size_t done = 0; ///< finished calls (under mu)
    };

    /**
     * Lock-free profile slot (one writer thread per slot, any
     * number of profile() readers). Relaxed ordering is sufficient
     * and load-bearing for the zero-overhead contract: each atomic
     * is an independent monotone counter, nothing is published
     * *through* it, and readers only want an eventually-consistent
     * snapshot for diagnostics.
     */
    struct ProfileSlot
    {
        std::atomic<std::uint64_t> tasks{0};
        std::atomic<std::uint64_t> busyNs{0};
    };

    void enqueue(const std::shared_ptr<Batch> &batch);
    void workerLoop();

    /** Run fn(i), charging task count and (when profiling) busy
     *  wall-time to @p slot. */
    void runTask(const std::shared_ptr<Batch> &batch, std::size_t i,
                 ProfileSlot &slot);

    /** Drop fully-claimed batches off the queue front. */
    bool haveWork() STARNUMA_REQUIRES(mu);

    mutable Mutex mu;
    CondVar workCv; ///< workers: work available (waits on mu)
    CondVar doneCv; ///< waiters: some batch finished (waits on mu)
    std::deque<std::shared_ptr<Batch>> queue STARNUMA_GUARDED_BY(mu);
    // lint: lock-free — written only by the constructor (before any
    // worker can observe it) and joined by the destructor after
    // every worker has exited; immutable in between.
    std::vector<std::thread> workers;
    bool stopping STARNUMA_GUARDED_BY(mu) = false;

    // lint: lock-free — the pointer is set once in the constructor;
    // the ProfileSlot atomics inside carry their own (relaxed)
    // synchronization.
    std::unique_ptr<ProfileSlot[]> slots; ///< [0]=callers, [w+1]=w
    std::uint64_t peakQueue STARNUMA_GUARDED_BY(mu) = 0;
    std::uint64_t enqueued STARNUMA_GUARDED_BY(mu) = 0;
    // lint: lock-free — constant after the constructor returns.
    std::uint64_t startNs = 0; ///< steady-clock pool birth time
};

} // namespace starnuma

#endif // STARNUMA_SIM_PARALLEL_HH
