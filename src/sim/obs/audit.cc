#include "sim/obs/audit.hh"

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace obs
{

const char *
auditBranchName(AuditBranch b)
{
    switch (b) {
      case AuditBranch::ToPool:             return "toPool";
      case AuditBranch::ToSharer:           return "toSharer";
      case AuditBranch::AlreadyPlaced:      return "alreadyPlaced";
      case AuditBranch::SamePlacement:      return "samePlacement";
      case AuditBranch::PingPongSuppressed:
        return "pingPongSuppressed";
      case AuditBranch::NoRoomBackoff:      return "noRoomBackoff";
      case AuditBranch::VictimEviction:     return "victimEviction";
    }
    panic("unknown audit branch %d", static_cast<int>(b));
}

const char *
auditBranchReason(AuditBranch b)
{
    switch (b) {
      case AuditBranch::ToPool:
        return "sharers reached the pool threshold";
      case AuditBranch::ToSharer:
        return "hot region placed at a random sharer";
      case AuditBranch::AlreadyPlaced:
        return "current home already a sharer";
      case AuditBranch::SamePlacement:
        return "chosen destination equals current home";
      case AuditBranch::PingPongSuppressed:
        return "migrations exceeded a quarter of the phase count";
      case AuditBranch::NoRoomBackoff:
        return "no pool resident was cold enough to evict";
      case AuditBranch::VictimEviction:
        return "lowest-numbered cold pool resident";
    }
    panic("unknown audit branch %d", static_cast<int>(b));
}

const char *
auditCsvHeader()
{
    return "run,seq,phase,branch,region,page,sharers,accesses,"
           "hiThreshold,loThreshold,candidates,from,to,reason";
}

// lint: cold-path per-decision bookkeeping, once per Algorithm 1
// evaluation inside the already-cold decidePhase
void
AuditLog::append(const AuditRecord &r)
{
    recs.push_back(r);
}

std::string
AuditLog::csvRows(const std::string &run) const
{
    std::string out;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const AuditRecord &r = recs[i];
        out += run + "," + formatCount(i) + "," +
               formatCount(r.phase) + "," +
               auditBranchName(r.branch) + "," +
               formatCount(r.region) + "," + formatCount(r.page) +
               "," + formatCount(r.sharers) + "," +
               formatCount(r.accesses) + "," +
               formatCount(r.hiThreshold) + "," +
               formatCount(r.loThreshold) + "," +
               formatCount(r.candidates) + "," +
               std::to_string(r.from) + "," + std::to_string(r.to) +
               ",\"" + auditBranchReason(r.branch) + "\"\n";
    }
    return out;
}

} // namespace obs
} // namespace starnuma
