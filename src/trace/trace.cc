#include "trace/trace.hh"

namespace starnuma
{
namespace trace
{

std::uint64_t
WorkloadTrace::totalRecords() const
{
    std::uint64_t total = 0;
    for (const auto &t : perThread)
        total += t.size();
    return total;
}

double
WorkloadTrace::recordsPerKiloInstruction() const
{
    std::uint64_t instr =
        instructionsPerThread * static_cast<std::uint64_t>(threads);
    return instr ? 1000.0 * static_cast<double>(totalRecords()) /
                       static_cast<double>(instr)
                 : 0.0;
}

} // namespace trace
} // namespace starnuma
