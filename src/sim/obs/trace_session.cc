#include "sim/obs/trace_session.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "sim/obs/registry.hh"
#include "sim/parallel.hh"

namespace starnuma
{
namespace obs
{

namespace
{

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
fmtUs(double us)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

} // anonymous namespace

TraceArgs &
TraceArgs::addRaw(const char *key, const std::string &value)
{
    if (!body.empty())
        body += ',';
    body += '"';
    body += jsonEscape(key);
    body += "\":";
    body += value;
    return *this;
}

TraceArgs &
TraceArgs::add(const char *key, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return addRaw(key, buf);
}

TraceArgs &
TraceArgs::add(const char *key, std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    return addRaw(key, buf);
}

TraceArgs &
TraceArgs::add(const char *key, int v)
{
    return add(key, static_cast<std::int64_t>(v));
}

TraceArgs &
TraceArgs::add(const char *key, double v)
{
    return addRaw(key, formatNumber(v));
}

TraceArgs &
TraceArgs::add(const char *key, const std::string &v)
{
    std::string quoted;
    quoted += '"';
    quoted += jsonEscape(v);
    quoted += '"';
    return addRaw(key, quoted);
}

std::string
TraceArgs::str() const
{
    return "{" + body + "}";
}

TraceSession &
TraceSession::global()
{
    // Leaky singleton (see RunSink::global for the rationale).
    static TraceSession *session = new TraceSession();
    return *session;
}

void
TraceSession::start()
{
    MutexLock lock(mu);
    events.clear();
    epochNs.store(steadyNowNs(), std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
    events.push_back(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"host (wall clock)\"}}");
    events.push_back(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
        "\"args\":{\"name\":\"simulated (ns timeline)\"}}");
}

void
TraceSession::stop()
{
    MutexLock lock(mu);
    enabled_.store(false, std::memory_order_relaxed);
    events.clear();
}

double
TraceSession::nowUs() const
{
    return static_cast<double>(
               steadyNowNs() -
               epochNs.load(std::memory_order_relaxed)) /
           1000.0;
}

int
TraceSession::hostTid()
{
    return ThreadPool::currentWorker() + 1;
}

void
TraceSession::push(std::string event)
{
    MutexLock lock(mu);
    if (!enabled_.load(std::memory_order_relaxed))
        return;
    events.push_back(std::move(event));
}

void
TraceSession::completeEvent(const std::string &name,
                            const char *cat, double ts_us,
                            double dur_us, int tid,
                            const std::string &args)
{
    std::string e = "{\"name\":\"" + jsonEscape(name) +
                    "\",\"cat\":\"" + jsonEscape(cat) +
                    "\",\"ph\":\"X\",\"ts\":" + fmtUs(ts_us) +
                    ",\"dur\":" + fmtUs(dur_us) +
                    ",\"pid\":1,\"tid\":" + std::to_string(tid);
    if (!args.empty())
        e += ",\"args\":" + args;
    e += "}";
    push(std::move(e));
}

void
TraceSession::instantEvent(const std::string &name, const char *cat,
                           double ts_us, int pid, int tid,
                           const std::string &args)
{
    std::string e = "{\"name\":\"" + jsonEscape(name) +
                    "\",\"cat\":\"" + jsonEscape(cat) +
                    "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
                    fmtUs(ts_us) +
                    ",\"pid\":" + std::to_string(pid) +
                    ",\"tid\":" + std::to_string(tid);
    if (!args.empty())
        e += ",\"args\":" + args;
    e += "}";
    push(std::move(e));
}

void
TraceSession::instantNow(const std::string &name, const char *cat,
                         const std::string &args)
{
    instantEvent(name, cat, nowUs(), tracePidHost, hostTid(), args);
}

void
TraceSession::counterEvent(const std::string &name, double ts_us,
                           int pid, int tid,
                           const std::string &args)
{
    push("{\"name\":\"" + jsonEscape(name) +
         "\",\"ph\":\"C\",\"ts\":" + fmtUs(ts_us) +
         ",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"args\":" + args +
         "}");
}

void
TraceSession::nameProcess(int pid, const std::string &name)
{
    push("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"args\":{\"name\":\"" +
         jsonEscape(name) + "\"}}");
}

void
TraceSession::nameThread(int pid, int tid, const std::string &name)
{
    push("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":\"" + jsonEscape(name) + "\"}}");
}

std::size_t
TraceSession::eventCount() const
{
    MutexLock lock(mu);
    return events.size();
}

void
TraceSession::appendPoolProfile()
{
    ThreadPool *pool = ThreadPool::globalIfCreated();
    if (!pool)
        return;
    Registry reg;
    pool->registerStats(reg, "pool");
    // Snapshot values are already valid JSON numbers; emit them as
    // one final counter so the pool's busy fractions and task
    // counts land next to the spans they summarize.
    Snapshot snap = reg.snapshot();
    std::string args = "{";
    bool first = true;
    for (const auto &[k, v] : snap.values()) {
        if (!first)
            args += ',';
        first = false;
        args += '"';
        args += jsonEscape(k);
        args += "\":";
        args += v;
    }
    args += '}';
    counterEvent("poolProfile", nowUs(), tracePidHost, 0, args);
    for (int w = 0; w <= pool->size(); ++w)
        nameThread(tracePidHost, w,
                   w == 0 ? "caller" :
                            "worker " + std::to_string(w - 1));
}

bool
TraceSession::writeTo(const std::string &path)
{
    appendPoolProfile();
    std::string out = "{\"traceEvents\":[\n";
    {
        MutexLock lock(mu);
        for (std::size_t i = 0; i < events.size(); ++i) {
            out += events[i];
            out += i + 1 < events.size() ? ",\n" : "\n";
        }
    }
    out += "],\n\"displayTimeUnit\":\"ms\"}\n";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok =
        std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
}

TraceSpan::TraceSpan(std::string name, const char *cat,
                     std::string args)
    : name_(std::move(name)), cat_(cat), args_(std::move(args))
{
    TraceSession &s = TraceSession::global();
    if (!s.enabled())
        return;
    active = true;
    startUs = s.nowUs();
}

TraceSpan::~TraceSpan()
{
    if (!active)
        return;
    TraceSession &s = TraceSession::global();
    if (!s.enabled())
        return;
    double end = s.nowUs();
    s.completeEvent(name_, cat_, startUs, end - startUs,
                    TraceSession::hostTid(), args_);
}

} // namespace obs
} // namespace starnuma
