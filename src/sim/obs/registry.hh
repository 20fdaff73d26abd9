/**
 * @file
 * Hierarchical, deterministic statistics registry. Components own
 * their stats objects exactly as before (sim/stats.hh); a Registry
 * holds named *references* to them under dotted paths like
 * "socket3.dram.queueNs", and a Snapshot is the sorted, formatted
 * read-out of every registered value at one instant. The JSON export
 * is byte-stable: keys are lexicographically sorted and
 * numbers are formatted by a deterministic shortest-round-trip
 * formatter, so two bitwise-identical simulations produce
 * byte-identical artifacts regardless of the worker-pool size.
 *
 * A Registry is a per-owner, single-threaded object (one per phase
 * machine, one per trace-sim run); the process-wide aggregation
 * point is obs::RunSink (sim/obs/obs.hh).
 */

#ifndef STARNUMA_SIM_OBS_REGISTRY_HH
#define STARNUMA_SIM_OBS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "sim/stats.hh"

namespace starnuma
{
namespace obs
{

/**
 * Deterministic number formatting shared by every exporter: whole
 * numbers print without a fraction, everything else prints with the
 * shortest decimal form that round-trips the exact double.
 */
std::string formatNumber(double v);
std::string formatCount(std::uint64_t v);

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** True when @p path is a well-formed dotted stats/stream path
 *  (non-empty, chars limited to [A-Za-z0-9._/-]). */
bool validStatPath(const std::string &path);

/**
 * A sorted (path -> formatted value) snapshot of registered stats.
 * Values are stored pre-formatted so merging and exporting are pure
 * string operations with no further rounding decisions.
 */
class Snapshot
{
  public:
    void set(const std::string &path, double v);
    void setCount(const std::string &path, std::uint64_t v);

    /** Copy every entry of @p other in under @p prefix. */
    void merge(const std::string &prefix, const Snapshot &other);

    bool empty() const { return vals.empty(); }
    std::size_t size() const { return vals.size(); }

    const std::map<std::string, std::string> &
    values() const
    {
        return vals;
    }

    /** Formatted value of @p path, or "" when absent. */
    std::string get(const std::string &path) const;

    /** One flat JSON object, keys sorted, one entry per line. */
    std::string json() const;

  private:
    std::map<std::string, std::string> vals;
};

/**
 * Named references to live stats objects. snapshot() reads every
 * registered value at call time; registration order is irrelevant
 * (entries are keyed by path). Registering the same path twice is a
 * programming error and panics.
 */
class Registry
{
  public:
    using CountFn = std::function<std::uint64_t()>;
    using GaugeFn = std::function<double()>;

    /** Register a live integer counter. */
    void addCounter(const std::string &path,
                    const std::uint64_t *v);
    void addCounterFn(const std::string &path, CountFn fn);

    /** Register a live scalar value. */
    void addGauge(const std::string &path, const double *v);
    void addGaugeFn(const std::string &path, GaugeFn fn);

    /** Expands to path.count/.sum/.mean/.min/.max. */
    void addMean(const std::string &path, const stats::Mean *m);

    /** Expands to path.total/.overflow/.p50/.p99/.bucketNN. */
    void addHistogram(const std::string &path,
                      const stats::Histogram *h);

    /** Number of registered entries (not expanded fields). */
    std::size_t size() const { return entries.size(); }

    /** Read every registered value now. */
    Snapshot snapshot() const;

  private:
    using Producer =
        std::function<void(const std::string &path, Snapshot &)>;

    /** Panics on duplicate or malformed @p path. */
    void add(const std::string &path, Producer p);

    std::map<std::string, Producer> entries;
};

} // namespace obs
} // namespace starnuma

#endif // STARNUMA_SIM_OBS_REGISTRY_HH
