#include "sim/obs/registry.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace starnuma
{
namespace obs
{

std::string
formatCount(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

std::string
formatNumber(double v)
{
    // Whole numbers (the common case for counters folded through
    // doubles) print without a fraction; the magnitude bound keeps
    // the integral check exact.
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        v > -1e15 && v < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    // Shortest precision that round-trips the exact double. strtod
    // of our own snprintf output is deterministic for a given bit
    // pattern, so the chosen form is too.
    char buf[64];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
Snapshot::set(const std::string &path, double v)
{
    vals[path] = formatNumber(v);
}

void
Snapshot::setCount(const std::string &path, std::uint64_t v)
{
    vals[path] = formatCount(v);
}

void
Snapshot::merge(const std::string &prefix, const Snapshot &other)
{
    for (const auto &[k, v] : other.vals)
        vals[prefix + k] = v;
}

std::string
Snapshot::get(const std::string &path) const
{
    auto it = vals.find(path);
    return it == vals.end() ? std::string() : it->second;
}

std::string
Snapshot::json() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : vals) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "  \"" + jsonEscape(k) + "\": " + v;
    }
    out += vals.empty() ? "}\n" : "\n}\n";
    return out;
}

bool
validStatPath(const std::string &path)
{
    if (path.empty())
        return false;
    for (char c : path) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-' || c == '/';
        if (!ok)
            return false;
    }
    return true;
}

void
Registry::add(const std::string &path, Producer p)
{
    sn_assert(validStatPath(path),
              "invalid stats path '%s' (allowed: [A-Za-z0-9._/-])",
              path.c_str());
    auto [it, inserted] = entries.emplace(path, std::move(p));
    (void)it;
    sn_assert(inserted, "duplicate stats path '%s'", path.c_str());
}

void
Registry::addCounter(const std::string &path, const std::uint64_t *v)
{
    add(path, [v](const std::string &p, Snapshot &s) {
        s.setCount(p, *v);
    });
}

void
Registry::addCounterFn(const std::string &path, CountFn fn)
{
    add(path, [fn](const std::string &p, Snapshot &s) {
        s.setCount(p, fn());
    });
}

void
Registry::addGauge(const std::string &path, const double *v)
{
    add(path,
        [v](const std::string &p, Snapshot &s) { s.set(p, *v); });
}

void
Registry::addGaugeFn(const std::string &path, GaugeFn fn)
{
    add(path,
        [fn](const std::string &p, Snapshot &s) { s.set(p, fn()); });
}

void
Registry::addMean(const std::string &path, const stats::Mean *m)
{
    add(path, [m](const std::string &p, Snapshot &s) {
        s.setCount(p + ".count", m->count());
        s.set(p + ".sum", m->sum());
        s.set(p + ".mean", m->mean());
        s.set(p + ".min", m->min());
        s.set(p + ".max", m->max());
    });
}

void
Registry::addHistogram(const std::string &path,
                       const stats::Histogram *h)
{
    add(path, [h](const std::string &p, Snapshot &s) {
        s.setCount(p + ".total", h->total());
        s.setCount(p + ".overflow", h->overflow());
        s.set(p + ".p50", h->quantile(0.50));
        s.set(p + ".p99", h->quantile(0.99));
        for (std::size_t i = 0; i < h->buckets(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), ".bucket%02zu", i);
            s.setCount(p + buf, h->bucket(i));
        }
    });
}

// lint: cold-path stats export, once per run when observing
Snapshot
Registry::snapshot() const
{
    Snapshot s;
    // lint: order-independent (std::map, and Snapshot sorts by key)
    for (const auto &[path, producer] : entries)
        producer(path, s);
    return s;
}

} // namespace obs
} // namespace starnuma
