#include "core/migration.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/obs/audit.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/registry.hh"
#include "sim/obs/trace_session.hh"

namespace starnuma
{
namespace core
{

MigrationEngine::MigrationEngine(const MigrationConfig &config,
                                 int n_sockets, bool has_pool,
                                 Addr region_bytes,
                                 std::uint64_t seed)
    : cfg(config), sockets(n_sockets), hasPool(has_pool),
      poolNode(n_sockets), regionBytes(region_bytes),
      pagesPerRegion(starnuma::pagesPerRegion(region_bytes)),
      rng(seed), hi(config.hiThresholdStart),
      lo(config.loThresholdStart), migrated_(0), toPool_(0),
      victims_(0), suppressed_(0)
{
    sn_assert(region_bytes % pageBytes == 0,
              "region size must be page aligned");
}

NodeId
MigrationEngine::currentLocation(RegionId region,
                                 const mem::PageMap &pages) const
{
    PageNum first = regionFirstPage(region, regionBytes);
    for (int p = 0; p < pagesPerRegion; ++p) {
        NodeId home = pages.home(first + PageNum(p));
        if (home != mem::invalidNode)
            return home;
    }
    return mem::invalidNode;
}

void
MigrationEngine::moveRegion(RegionId region, NodeId to,
                            mem::PageMap &pages)
{
    PageNum first = regionFirstPage(region, regionBytes);
    for (int p = 0; p < pagesPerRegion; ++p)
        if (pages.home(first + PageNum(p)) != mem::invalidNode)
            pages.setHome(first + PageNum(p), to);
}

NodeId
MigrationEngine::randomSharer(const TrackerEntry &e)
{
    int n = e.sharerCount();
    if (n == 0)
        return static_cast<NodeId>(rng.range32(sockets));
    int pick = static_cast<int>(rng.range32(n));
    for (NodeId s = 0; s < sockets; ++s) {
        if (e.sharerMask & (1ULL << s)) {
            if (pick == 0)
                return s;
            --pick;
        }
    }
    panic("sharer mask/popcount mismatch");
}

bool
MigrationEngine::pingPonging(RegionId region, int phase) const
{
    // "A region is ping-ponging if it has migrated more than a
    // quarter of the current phase number" (Algorithm 1 footnote).
    auto it = migrationCounts.find(region);
    if (it == migrationCounts.end())
        return false;
    return it->second * 4 > phase;
}

// lint: cold-path Algorithm 1 runs once per migration phase
std::vector<RegionMigration>
MigrationEngine::decidePhase(RegionTracker &tracker,
                             mem::PageMap &pages,
                             std::uint64_t pool_capacity_pages,
                             int phase)
{
    sn_assert(tracker.regionBytes() == regionBytes,
              "tracker/engine region size mismatch");

    // Snapshot the touched regions. Algorithm 1 performs a single
    // unsorted pass and relies on the adaptive HI threshold (over
    // many phases) to keep the candidate set near the migration
    // limit. Our scaled runs have few phases, so for T_i (i > 0) we
    // take candidates hottest-first, which the threshold adaptation
    // would converge to; T_0 has no counts and keeps id order.
    std::vector<std::pair<RegionId, TrackerEntry>> touched_sorted;
    touched_sorted.reserve(tracker.touchedRegions());
    tracker.scanAndReset([&](RegionId r, const TrackerEntry &e) {
        touched_sorted.emplace_back(r, e);
    });
    if (cfg.counterBits > 0) {
        std::sort(touched_sorted.begin(), touched_sorted.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second.accesses != b.second.accesses)
                          return a.second.accesses >
                                 b.second.accesses;
                      return a.first < b.first;
                  });
    } else {
        std::sort(touched_sorted.begin(), touched_sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
    }

    // Phase snapshot for victim lookups (the live tracker was just
    // reset; untouched regions read as zero -> always cold).
    FlatMap<RegionId, TrackerEntry> snapshot;
    snapshot.reserve(touched_sorted.size());
    for (const auto &[r, e] : touched_sorted)
        snapshot.emplace(r, e);
    auto phaseEntry = [&](RegionId r) -> TrackerEntry {
        auto it = snapshot.find(r);
        return it == snapshot.end() ? TrackerEntry{} : it->second;
    };

    auto isCandidate = [&](const TrackerEntry &e) {
        if (cfg.counterBits == 0) {
            // T0: fixed criterion — touched by all sockets.
            return e.sharerCount() >= sockets;
        }
        return e.accesses >= hi;
    };

    std::size_t candidates = 0;
    for (const auto &[r, e] : touched_sorted)
        candidates += isCandidate(e);

    std::vector<RegionMigration> plan;
    std::uint64_t moved_pages = 0;

    // One record per Algorithm-1 decision, fanned into two
    // observability channels: an instant trace event (wall-clock
    // channel, the original five branches) and a structured
    // obs::AuditRecord (deterministic channel, every branch).
    // Guarded so an unobserved run pays one relaxed load per phase.
    obs::TraceSession &trace = obs::TraceSession::global();
    const bool observed = obs::RunSink::global().enabled();
    auto record = [&](obs::AuditBranch branch, RegionId region,
                      const TrackerEntry &e, NodeId from,
                      NodeId to, bool traced) {
        if (!observed)
            return;
        if (traced) {
            trace.instantNow(
                "migration", "migration",
                obs::TraceArgs()
                    .add("branch",
                         std::string(obs::auditBranchName(branch)))
                    .add("region",
                         static_cast<std::uint64_t>(region))
                    .add("page",
                         regionFirstPage(region, regionBytes)
                             .value())
                    .add("sharers", e.sharerCount())
                    .add("accesses",
                         static_cast<std::uint64_t>(e.accesses))
                    .add("from", static_cast<int>(from))
                    .add("to", static_cast<int>(to))
                    .add("phase", phase)
                    .str());
        }
        obs::AuditRecord r;
        r.phase = static_cast<std::uint32_t>(phase);
        r.branch = branch;
        r.region = region;
        r.page = regionFirstPage(region, regionBytes).value();
        r.sharers =
            static_cast<std::uint32_t>(e.sharerCount());
        r.accesses = e.accesses;
        r.hiThreshold = hi;
        r.loThreshold = lo;
        r.candidates = static_cast<std::uint32_t>(candidates);
        r.from = static_cast<std::int32_t>(from);
        r.to = static_cast<std::int32_t>(to);
        audit_.append(r);
    };

    for (const auto &[region, e] : touched_sorted) {
        if (moved_pages >= cfg.migrationLimitPages)
            break;
        if (!isCandidate(e))
            continue;

        NodeId curr = currentLocation(region, pages);
        if (curr == mem::invalidNode)
            continue;

        NodeId best;
        if (hasPool && cfg.poolEnabled &&
            e.sharerCount() >= cfg.poolSharerThreshold) {
            best = poolNode;
        } else if (!cfg.randomSharerReshuffle && curr != poolNode &&
                   curr < 64 && (e.sharerMask & (1ULL << curr))) {
            // Already placed at a sharer: no socket-to-socket move.
            record(obs::AuditBranch::AlreadyPlaced, region, e, curr,
                   curr, false);
            continue;
        } else {
            best = randomSharer(e);
        }
        if (best == curr) {
            record(obs::AuditBranch::SamePlacement, region, e, curr,
                   best, false);
            continue;
        }
        if (pingPonging(region, phase)) {
            ++suppressed_;
            record(obs::AuditBranch::PingPongSuppressed, region, e,
                   curr, best, true);
            continue;
        }

        if (best == poolNode) {
            // Evict cold pool regions until the incoming region
            // fits (regions can have fewer mapped pages than their
            // nominal size, so one-in-one-out is not enough).
            bool room = true;
            while (pages.pagesAt(poolNode) + pagesPerRegion >
                   pool_capacity_pages) {
                // Victim choice: the lowest-numbered cold resident
                // (a commutative min-reduction, so it would be
                // order-safe even without FlatSet's deterministic
                // iteration order).
                RegionId victim = 0;
                bool found = false;
                for (RegionId pr : poolResidents) {
                    if (phaseEntry(pr).accesses <= lo &&
                        (!found || pr < victim)) {
                        victim = pr;
                        found = true;
                    }
                }
                if (!found) {
                    // No cold victim: back off and raise LO so the
                    // next phase can find one.
                    lo = std::min(lo * 2, cfg.loThresholdMax);
                    room = false;
                    record(obs::AuditBranch::NoRoomBackoff, region,
                           e, curr, poolNode, true);
                    break;
                }
                NodeId victim_dest = randomSharer(phaseEntry(victim));
                moveRegion(victim, victim_dest, pages);
                poolResidents.erase(victim);
                ++migrationCounts[victim];
                ++victims_;
                plan.push_back(
                    {victim, poolNode, victim_dest, true});
                moved_pages += pagesPerRegion;
                record(obs::AuditBranch::VictimEviction, victim,
                       phaseEntry(victim), poolNode, victim_dest,
                       true);
            }
            if (!room)
                continue;
        }

        moveRegion(region, best, pages);
        if (best == poolNode) {
            poolResidents.insert(region);
            ++toPool_;
        } else {
            poolResidents.erase(region);
        }
        ++migrationCounts[region];
        ++migrated_;
        plan.push_back({region, curr, best, false});
        moved_pages += pagesPerRegion;
        record(best == poolNode ? obs::AuditBranch::ToPool
                                : obs::AuditBranch::ToSharer,
               region, e, curr, best, true);
    }

    // Adapt the HI threshold to keep the candidate count near the
    // migration limit (T16 only; T0 uses its fixed criterion).
    if (cfg.counterBits > 0) {
        std::uint64_t limit_regions = std::max<std::uint64_t>(
            1, cfg.migrationLimitPages / pagesPerRegion);
        if (candidates > 2 * limit_regions)
            hi = std::min(hi * 2, cfg.hiThresholdMax);
        else if (candidates < limit_regions / 2)
            hi = std::max(hi / 2, cfg.hiThresholdMin);
    }

    return plan;
}

void
MigrationEngine::saveState(std::vector<std::uint8_t> &out) const
{
    putVarint(out, hi);
    putVarint(out, lo);
    putVarint(out, rng.rawState());
    putVarint(out, rng.rawInc());
    putVarint(out, migrated_);
    putVarint(out, toPool_);
    putVarint(out, victims_);
    putVarint(out, suppressed_);
    putVarint(out, migrationCounts.size());
    for (const auto &[region, count] : migrationCounts) {
        putVarint(out, region);
        putVarint(out, static_cast<std::uint64_t>(count));
    }
    putVarint(out, poolResidents.size());
    for (RegionId region : poolResidents)
        putVarint(out, region);
}

bool
MigrationEngine::loadState(ByteReader &r)
{
    if (!migrationCounts.empty() || !poolResidents.empty() ||
        migrated_ != 0)
        return false;
    std::uint64_t v_hi = 0, v_lo = 0, rng_state = 0, rng_inc = 0;
    if (!r.getVarint(v_hi) || !r.getVarint(v_lo) ||
        !r.getVarint(rng_state) || !r.getVarint(rng_inc) ||
        !r.getVarint(migrated_) || !r.getVarint(toPool_) ||
        !r.getVarint(victims_) || !r.getVarint(suppressed_))
        return false;
    std::uint64_t n = 0;
    if (!r.getVarint(n) || n > r.remaining())
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t region = 0, count = 0;
        if (!r.getVarint(region) || !r.getVarint(count))
            return false;
        if (!migrationCounts
                 .try_emplace(static_cast<RegionId>(region),
                              static_cast<int>(count))
                 .second)
            return false;
    }
    if (!r.getVarint(n) || n > r.remaining())
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t region = 0;
        if (!r.getVarint(region))
            return false;
        if (!poolResidents.insert(static_cast<RegionId>(region))
                 .second)
            return false;
    }
    hi = static_cast<std::uint32_t>(v_hi);
    lo = static_cast<std::uint32_t>(v_lo);
    rng.restoreRaw(rng_state, rng_inc);
    return true;
}

double
MigrationEngine::poolMigrationFraction() const
{
    return migrated_ ? static_cast<double>(toPool_) / static_cast<double>(migrated_)
                     : 0.0;
}

// lint: cold-path stats export, once per run when observing
void
MigrationEngine::registerStats(obs::Registry &r,
                               const std::string &prefix) const
{
    r.addCounter(prefix + ".migratedRegions", &migrated_);
    r.addCounter(prefix + ".migratedToPool", &toPool_);
    r.addCounter(prefix + ".victimEvictions", &victims_);
    r.addCounter(prefix + ".pingPongSuppressed", &suppressed_);
    r.addGaugeFn(prefix + ".poolMigrationFraction",
                 [this] { return poolMigrationFraction(); });
    r.addCounterFn(prefix + ".poolRegions",
                   [this] { return poolRegions(); });
    r.addCounterFn(prefix + ".hiThreshold",
                   [this] { return std::uint64_t(hi); });
    r.addCounterFn(prefix + ".loThreshold",
                   [this] { return std::uint64_t(lo); });
}

} // namespace core
} // namespace starnuma
