/**
 * @file
 * Step C of the methodology (§IV-A3, §IV-B): per-phase, event-
 * driven timing simulation of the scaled-down 16-socket system.
 * Socket 0 is the "detailed" socket: its cores replay their traces
 * through a ROB-window core model whose execution rate responds to
 * memory latency. The remaining sockets are "light": their cores
 * inject their own traces at a rate regulated by the detailed
 * socket's measured IPC. Every socket has a shared LLC and a
 * detailed memory controller; an interconnect module applies
 * per-link fluid-queue contention; a distributed MESI directory
 * triggers 3-hop and 4-hop block transfers; in-flight page
 * migrations stall accesses to their pages and move page data over
 * the links (§IV-C).
 */

#ifndef STARNUMA_DRIVER_TIMING_SIM_HH
#define STARNUMA_DRIVER_TIMING_SIM_HH

#include "driver/metrics.hh"
#include "driver/system_setup.hh"
#include "driver/trace_sim.hh"
#include "sim/obs/timeseries.hh"
#include "sim/scale.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace driver
{

/** Variations of the timing run. */
struct TimingOptions
{
    /**
     * Simulate only the detailed socket's threads with every page
     * homed locally: the "single-socket execution with local
     * memory" reference of Table III.
     */
    bool singleSocketLocal = false;

    /**
     * Ablation of §III-D3: model conventional software TLB
     * shootdowns (an IPI + kernel handler on every core per
     * migrated page) instead of the DiDi-style hardware support.
     */
    bool softwareShootdowns = false;

    /**
     * Run each phase on its own machine state, concurrently when
     * the host has spare cores — the paper's literal "N parallel
     * timing simulations" (§IV-A3). Caches start cold each phase
     * (only the warmup window heats them); the default sequential
     * mode instead carries cache/directory state across phases.
     */
    bool independentPhases = false;
};

/** Core-model parameters (Table I, scaled per Table II). */
struct CoreModel
{
    /** Base CPI of non-stalled instructions (4-wide, with L1/L2
     *  effects folded in since the trace is filter-missing). */
    double baseCpi = 0.5;

    /** Reorder-buffer reach in instructions. */
    int robEntries = 256;

    /** Maximum outstanding LLC misses per core. */
    int mshrs = 8;

    /** Socket-LLC hit latency (30 cycles, Table I). */
    Cycles llcHitLatency{30};

    /**
     * LLC capacity per core. Table I specifies 2 MB/core; the
     * scaled-down timing windows are far too short to ever fill
     * that, so the default scales the LLC with the window the same
     * way Table II scales bandwidth with the core count.
     */
    Addr llcBytesPerCore = 512 * 1024;
};

/** The per-phase mixed-modality timing simulator. */
class TimingSim
{
  public:
    TimingSim(const SystemSetup &system_setup,
              const SimScale &sim_scale,
              TimingOptions options = {});

    /**
     * Simulate the detail window of every checkpoint phase and
     * aggregate (§IV-A3: statistics are aggregated across the
     * simulation of all checkpoints).
     */
    RunMetrics run(const trace::WorkloadTrace &trace,
                   const TraceSimResult &placement);

    /**
     * Detailed per-phase/per-component statistics (obs registry
     * snapshots taken during the last run()). Populated only while
     * the obs::RunSink is enabled; empty otherwise. Kept out of
     * RunMetrics so that stays trivially copyable (tests compare
     * runs by memcmp).
     */
    const obs::Snapshot &stats() const { return stats_; }

    /**
     * Per-epoch telemetry of the last run(): each phase's link
     * utilization and DRAM request-rate streams merged under a
     * "phaseNN." prefix in canonical phase order. Populated only
     * while the obs::RunSink is enabled; empty otherwise.
     * Kept out of RunMetrics for the same reason as stats().
     */
    const obs::TimeSeries &timeseries() const { return timeseries_; }

  private:
    const SystemSetup &setup;
    SimScale scale;
    TimingOptions options;
    CoreModel core;
    obs::Snapshot stats_;
    obs::TimeSeries timeseries_;
};

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_TIMING_SIM_HH
