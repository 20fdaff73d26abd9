/**
 * @file
 * Domain example: evaluating your own workload. Implements a small
 * custom kernel (a shared work queue feeding per-thread scratch
 * buffers — a thread-pool pattern) against the Workload interface,
 * captures it, and runs it through both systems. Demonstrates the
 * three integration points: setup() with partitioned first touch,
 * step() with traced loads/stores, and the experiment driver.
 */

#include <cstdio>

#include "driver/system_setup.hh"
#include "driver/timing_sim.hh"
#include "driver/trace_sim.hh"
#include "sim/table.hh"
#include "workloads/workload.hh"

using namespace starnuma;

namespace
{

/** A thread-pool-style kernel: shared queue, private scratch. */
class WorkQueueKernel : public workloads::Workload
{
  public:
    std::string name() const override { return "workqueue"; }

    void
    setup(trace::CaptureContext &ctx, const SimScale &scale) override
    {
        threads = scale.threads();
        rng = Rng(99);
        // Shared: a queue of work descriptors all threads poll.
        queue.allocate(ctx, 1 << 16);
        // Private: per-thread scratch buffers (page aligned). Only
        // their addresses are traced, so they need no host storage.
        scratch = ctx.alloc(static_cast<Addr>(threads) * 64 * pageBytes);
        for (ThreadId t = 0; t < threads; ++t)
            for (Addr a = 0; a < 64 * pageBytes; a += pageBytes)
                ctx.store(t, scratch + static_cast<Addr>(t) * 64 *
                                           pageBytes + a);
        // The queue is written by a middle "producer" thread.
        for (std::size_t i = 0; i < queue.size(); ++i)
            ctx.store(threads / 2, queue.addrOf(i));
    }

    void
    step(ThreadId t, trace::CaptureContext &ctx) override
    {
        // Poll the shared queue (read-write shared: vagabond).
        std::size_t slot = rng.range32(
            static_cast<std::uint32_t>(queue.size()));
        queue.read(ctx, t, slot);
        queue.write(ctx, t, slot, t);
        ctx.instr(t, 8);
        // Work on private scratch (local after first touch).
        Addr base = scratch + static_cast<Addr>(t) * 64 * pageBytes;
        for (int i = 0; i < 12; ++i) {
            ctx.load(t, base + (rng.next32() %
                                (64 * pageBytes / blockBytes)) *
                                   blockBytes);
            ctx.instr(t, 6);
        }
    }

  private:
    int threads = 0;
    Rng rng{99};
    trace::TracedArray<std::uint64_t> queue;
    Addr scratch = 0; ///< per-thread scratch buffers
};

} // anonymous namespace

int
main()
{
    SimScale scale = SimScale::sc1();
    scale.phases = 3;

    WorkQueueKernel kernel;
    std::printf("capturing custom kernel '%s'...\n",
                kernel.name().c_str());
    auto trace = kernel.capture(scale);
    std::printf("  %llu records, %.1f MB footprint\n",
                static_cast<unsigned long long>(
                    trace.totalRecords()),
                static_cast<double>(trace.footprintBytes) / 1048576.0);

    TextTable t({"system", "IPC", "AMAT ns", "pool share"});
    driver::RunMetrics base_m;
    for (auto mk : {&driver::SystemSetup::baseline,
                    &driver::SystemSetup::starnuma}) {
        driver::SystemSetup setup = mk();
        driver::TraceSim tsim(setup, scale);
        auto placement = tsim.run(trace);
        driver::TimingSim timing(setup, scale);
        auto m = timing.run(trace, placement);
        if (!setup.sys.hasPool)
            base_m = m;
        t.addRow({setup.name, TextTable::num(m.ipc, 3),
                  TextTable::num(m.amatNs(), 0),
                  TextTable::pct(m.mix[3])});
        if (setup.sys.hasPool)
            std::printf("\n%s\nspeedup: %.2fx\n", t.str().c_str(),
                        m.speedupOver(base_m));
    }
    return 0;
}
