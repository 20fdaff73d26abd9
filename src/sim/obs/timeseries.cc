#include "sim/obs/timeseries.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace obs
{

namespace
{

/** Column pointers sorted by path: the one export order. */
template <typename Cols>
std::vector<const typename Cols::value_type *>
sortedColumns(const Cols &cols)
{
    std::vector<const typename Cols::value_type *> out;
    out.reserve(cols.size());
    for (const auto &c : cols)
        out.push_back(&c);
    std::sort(out.begin(), out.end(),
              [](const auto *a, const auto *b) {
                  return a->path < b->path;
              });
    return out;
}

} // anonymous namespace

TimeSeries::StreamId
TimeSeries::addStream(const std::string &path, std::size_t capacity)
{
    sn_assert(validStatPath(path),
              "invalid stream path '%s' (allowed: [A-Za-z0-9._/-])",
              path.c_str());
    sn_assert(find(path) == nullptr, "duplicate stream path '%s'",
              path.c_str());
    cols.push_back(Column{path, {}, {}});
    cols.back().ts.reserve(capacity);
    cols.back().vals.reserve(capacity);
    return static_cast<StreamId>(cols.size() - 1);
}

// lint: cold-path per-epoch sampling point; capacity reserved at
// registration, so the append is a store in the steady state
void
TimeSeries::sample(StreamId stream, std::uint64_t t, double value)
{
    sn_assert(stream < cols.size(), "unknown stream id %u", stream);
    cols[stream].ts.push_back(t);
    cols[stream].vals.push_back(value);
}

bool
TimeSeries::empty() const
{
    for (const Column &c : cols)
        if (!c.ts.empty())
            return false;
    return true;
}

std::size_t
TimeSeries::samples(StreamId stream) const
{
    sn_assert(stream < cols.size(), "unknown stream id %u", stream);
    return cols[stream].ts.size();
}

double
TimeSeries::lastValue(StreamId stream) const
{
    sn_assert(stream < cols.size(), "unknown stream id %u", stream);
    return cols[stream].vals.empty() ? 0.0
                                     : cols[stream].vals.back();
}

void
TimeSeries::merge(const std::string &prefix, const TimeSeries &other)
{
    for (const Column &c : other.cols) {
        std::string path = prefix + c.path;
        sn_assert(find(path) == nullptr,
                  "merge would duplicate stream path '%s'",
                  path.c_str());
        cols.push_back(Column{path, c.ts, c.vals});
    }
}

const TimeSeries::Column *
TimeSeries::find(const std::string &path) const
{
    for (const Column &c : cols)
        if (c.path == path)
            return &c;
    return nullptr;
}

std::string
TimeSeries::json() const
{
    std::string out = "{";
    bool first = true;
    for (const Column *c : sortedColumns(cols)) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "  \"" + jsonEscape(c->path) + "\": {\"t\": [";
        for (std::size_t i = 0; i < c->ts.size(); ++i) {
            if (i)
                out += ",";
            out += formatCount(c->ts[i]);
        }
        out += "], \"v\": [";
        for (std::size_t i = 0; i < c->vals.size(); ++i) {
            if (i)
                out += ",";
            out += formatNumber(c->vals[i]);
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n}\n";
    return out;
}

} // namespace obs
} // namespace starnuma
