/**
 * @file
 * Deterministic per-epoch metric streams (DESIGN.md §14). A
 * TimeSeries is a per-owner set of named streams sampled on the
 * *simulated* clock — per pacer epoch in the timing simulation, per
 * migration phase in the trace replay — stored in flat columnar
 * buffers (one timestamp column and one value column per stream,
 * capacity reserved at registration) so sampling never allocates.
 * Exports are byte-stable: streams sort lexicographically, samples
 * keep their append order (simulated time is deterministic), and
 * numbers go through the shared shortest-round-trip formatter, so
 * artifacts are byte-identical for any STARNUMA_THREADS.
 *
 * The process-wide aggregation point is obs::RunSink
 * (sim/obs/obs.hh): experiments merge their series in under a
 * "<workload>.<setup>." prefix, and the run directory's
 * timeseries.json is the merged json().
 */

#ifndef STARNUMA_SIM_OBS_TIMESERIES_HH
#define STARNUMA_SIM_OBS_TIMESERIES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/annotations.hh"

namespace starnuma
{
namespace obs
{

/**
 * A set of named per-epoch metric streams with columnar storage.
 * Single-threaded per owner (one per phase machine, one per
 * trace-sim run), like obs::Registry; cross-experiment aggregation
 * goes through obs::RunSink.
 */
class TimeSeries
{
  public:
    /** Index of a registered stream; valid for this object only. */
    using StreamId = std::uint32_t;

    /**
     * Register a stream under a dotted path and reserve room for
     * @p capacity samples (sampling beyond it still works, it just
     * pays an amortized regrowth). Panics on a duplicate or
     * malformed path — stream registration is a programming
     * interface, exactly like Registry::add.
     */
    StreamId addStream(const std::string &path,
                       std::size_t capacity = 0);

    /** Append one (t, value) sample. @p t is the stream's simulated
     *  timestamp: cycles in the timing sim, phase number in the
     *  trace sim. */
    // lint: cold-path per-epoch sampling point, off the per-record
    // path by construction (pacer epochs / phase boundaries)
    STARNUMA_COLD_PATH void sample(StreamId stream, std::uint64_t t,
                                   double value);

    std::size_t streams() const { return cols.size(); }
    bool empty() const;

    /** Samples appended to @p stream so far. */
    std::size_t samples(StreamId stream) const;

    /** The last value appended to @p stream (0.0 when empty): the
     *  single source the trace counter events re-emit from. */
    double lastValue(StreamId stream) const;

    /** Copy every stream of @p other in under @p prefix. */
    void merge(const std::string &prefix, const TimeSeries &other);

    /**
     * One JSON object, keys sorted: each stream maps to
     * {"t": [...], "v": [...]} column arrays.
     */
    std::string json() const;

  private:
    struct Column
    {
        std::string path;
        std::vector<std::uint64_t> ts;
        std::vector<double> vals;
    };

    const Column *find(const std::string &path) const;

    /** Columns in registration order; exports sort by path. */
    std::vector<Column> cols;
};

} // namespace obs
} // namespace starnuma

#endif // STARNUMA_SIM_OBS_TIMESERIES_HH
