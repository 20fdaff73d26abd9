/**
 * @file
 * A command-line front end for the simulator — run any (workload,
 * system) pair at any scale and get the full metric set, like a
 * little gem5:
 *
 *   ./example_starnuma_cli --workload bfs --system starnuma \
 *       --phases 5 --instructions 400000 --region-kb 16
 *
 * and audit the artifact store (`cache ls|verify|gc`, see usage).
 *
 * Systems: baseline starnuma starnuma-t0 starnuma-switched
 *          baseline-iso-bw baseline-2x-bw starnuma-half-bw
 *          starnuma-small-pool baseline-static starnuma-static
 *          baseline-replication
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "driver/artifact_cache.hh"
#include "driver/experiment.hh"
#include "workloads/workload.hh"
#include "sim/logging.hh"
#include "sim/table.hh"

using namespace starnuma;

namespace
{

driver::SystemSetup
setupByName(const std::string &name)
{
    using S = driver::SystemSetup;
    if (name == "baseline")
        return S::baseline();
    if (name == "starnuma")
        return S::starnuma();
    if (name == "starnuma-t0")
        return S::starnumaT0();
    if (name == "starnuma-switched")
        return S::starnumaSwitched();
    if (name == "baseline-iso-bw")
        return S::baselineIsoBW();
    if (name == "baseline-2x-bw")
        return S::baseline2xBW();
    if (name == "starnuma-half-bw")
        return S::starnumaHalfBW();
    if (name == "starnuma-small-pool")
        return S::starnumaSmallPool();
    if (name == "baseline-static")
        return S::baselineStatic();
    if (name == "starnuma-static")
        return S::starnumaStatic();
    if (name == "baseline-replication")
        return S::baselineReplication();
    fatal("unknown system '%s'", name.c_str());
}

void
usage()
{
    std::puts(
        "usage: example_starnuma_cli [--workload NAME] "
        "[--system NAME]\n"
        "  [--phases N] [--instructions N-per-thread-per-phase]\n"
        "  [--region-kb N] [--pool-fraction F]\n"
        "  [--compare]   (also run the baseline, print speedup)\n"
        "       example_starnuma_cli cache ls|verify|gc "
        "[--max-bytes N] [--drop-stale]\n"
        "  (the store STARNUMA_CACHE_DIR names)");
}

/**
 * `cache ls|verify|gc` over the store STARNUMA_CACHE_DIR names: ls
 * lists every object's verdict, verify the bad ones (and fails if
 * any), gc drops them (--drop-stale) and/or trims to --max-bytes.
 */
int
cacheCommand(int argc, char **argv)
{
    std::string cmd = argc > 0 ? argv[0] : "";
    bool drop = false;
    std::optional<std::uint64_t> max_bytes;
    for (int i = 1; i < argc; ++i) {
        if (cmd == "gc" && !std::strcmp(argv[i], "--drop-stale"))
            drop = true;
        else if (cmd == "gc" && !std::strcmp(argv[i], "--max-bytes") &&
                 i + 1 < argc) {
            // A malformed budget must not read as 0 and empty the store.
            char *end = nullptr;
            max_bytes = std::strtoull(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0')
                cmd.clear();
        } else {
            cmd.clear();
        }
    }
    auto store = driver::ArtifactCache::global().store();
    if ((cmd != "ls" && cmd != "verify" && cmd != "gc") || !store) {
        usage();
        return 2;
    }
    driver::StoreAudit audit = driver::auditStore(*store, drop, max_bytes);
    static const char *const verdicts[] = {"ok", "STALE", "INVALID"};
    for (const driver::StoreAudit::Object &o : audit.objects)
        if (cmd == "ls" || o.status != driver::ObjectStatus::Ok)
            std::printf("%-7s %-18s %s\n",
                        verdicts[static_cast<int>(o.status)],
                        o.kind.c_str(), o.rel.c_str());
    std::printf("cache %s: %zu ok, %zu stale, %zu invalid; %zu "
                "object(s) now stored\n",
                cmd.c_str(), audit.ok, audit.stale, audit.invalid,
                store->listObjects().size());
    return cmd == "verify" && audit.ok != audit.objects.size();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload = "bfs";
    std::string system = "starnuma";
    SimScale scale = SimScale::sc1();
    Addr region_kb = 16;
    double pool_fraction = -1;
    bool compare = false;

    if (argc > 1 && !std::strcmp(argv[1], "cache"))
        return cacheCommand(argc - 2, argv + 2);

    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            workload = next();
        else if (!std::strcmp(argv[i], "--system"))
            system = next();
        else if (!std::strcmp(argv[i], "--phases"))
            scale.phases = std::atoi(next());
        else if (!std::strcmp(argv[i], "--instructions"))
            scale.phaseInstructions = std::atoll(next());
        else if (!std::strcmp(argv[i], "--region-kb"))
            region_kb = std::atoll(next());
        else if (!std::strcmp(argv[i], "--pool-fraction"))
            pool_fraction = std::atof(next());
        else if (!std::strcmp(argv[i], "--compare"))
            compare = true;
        else if (!std::strcmp(argv[i], "--list")) {
            std::puts("workloads:");
            for (const auto &w : workloads::workloadNames())
                std::printf("  %s\n", w.c_str());
            std::puts(
                "systems: baseline starnuma starnuma-t0 "
                "starnuma-switched baseline-iso-bw baseline-2x-bw "
                "starnuma-half-bw starnuma-small-pool "
                "baseline-static starnuma-static "
                "baseline-replication");
            return 0;
        }
        else {
            usage();
            return !!std::strcmp(argv[i], "--help");
        }
    }

    driver::SystemSetup setup = setupByName(system);
    setup.regionBytes = region_kb * 1024;
    if (pool_fraction > 0)
        setup.sys.poolCapacityFraction = pool_fraction;

    std::printf("workload=%s system=%s threads=%d phases=%d "
                "instr/phase=%llu\n",
                workload.c_str(), setup.name.c_str(),
                scale.threads(), scale.phases,
                static_cast<unsigned long long>(
                    scale.phaseInstructions));

    auto run = driver::runExperiment(workload, setup, scale);
    const auto &m = run.metrics;

    TextTable t({"metric", "value"});
    t.addRow({"per-core IPC (detailed socket)",
              TextTable::num(m.ipc, 3)});
    t.addRow({"AMAT", TextTable::num(m.amatNs(), 1) + " ns"});
    t.addRow({"  unloaded component",
              TextTable::num(m.unloadedAmatNs(), 1) + " ns"});
    t.addRow({"  contention delay",
              TextTable::num(m.contentionNs(), 1) + " ns"});
    t.addRow({"LLC MPKI", TextTable::num(m.llcMpki, 1)});
    for (int i = 0; i < driver::accessTypes; ++i)
        t.addRow({std::string("accesses: ") +
                      driver::accessTypeName(
                          static_cast<driver::AccessType>(i)),
                  TextTable::pct(m.mix[i], 1)});
    t.addRow({"mean UPI / NUMALink / CXL utilization",
              TextTable::pct(m.upiUtilization, 1) + " / " +
                  TextTable::pct(m.numalinkUtilization, 1) + " / " +
                  TextTable::pct(m.cxlUtilization, 1)});
    t.addRow({"migrated pages",
              std::to_string(run.placement.migratedPagesTotal)});
    t.addRow({"migrations to pool",
              TextTable::pct(
                  run.placement.poolMigrationFraction, 0)});
    t.addRow({"pages in pool",
              std::to_string(run.placement.pagesInPool) + " / " +
                  std::to_string(
                      run.placement.poolCapacityPages)});
    if (setup.replicateReadOnly)
        t.addRow({"replication capacity overhead",
                  TextTable::num(run.placement.replication
                                     .capacityOverhead,
                                 2) + "x"});
    std::printf("\n%s", t.str().c_str());

    if (compare) {
        auto base = driver::runExperiment(
            workload, driver::SystemSetup::baseline(), scale);
        std::printf("\nspeedup over baseline: %.2fx\n",
                    m.speedupOver(base.metrics));
    }
    return 0;
}
