#include "sim/obs/obs.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <system_error>

#include "sim/obs/trace_session.hh"

namespace starnuma
{
namespace obs
{

namespace
{

bool
writeWholeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
              content.size();
    return std::fclose(f) == 0 && ok;
}

} // anonymous namespace

RunSink &
RunSink::global()
{
    // Leaky singleton: the atexit hook must be able to run before
    // static destruction would have torn the sink down.
    static RunSink *sink = [] {
        auto *s = new RunSink();
        if (const char *dir = std::getenv("STARNUMA_OBS_DIR"))
            if (dir[0] != '\0')
                s->start(dir);
        return s;
    }();
    return *sink;
}

void
RunSink::start(const std::string &dir)
{
    {
        MutexLock lock(mu);
        dir_ = dir;
        stats_ = Snapshot();
        series_ = TimeSeries();
        audit_.clear();
        enabled_.store(true, std::memory_order_relaxed);
    }
    TraceSession::global().start();
    if (!dir.empty()) {
        static std::once_flag hook;
        std::call_once(hook, [] {
            std::atexit([] { RunSink::global().write(); });
        });
    }
}

void
RunSink::stop()
{
    {
        MutexLock lock(mu);
        enabled_.store(false, std::memory_order_relaxed);
        dir_.clear();
        stats_ = Snapshot();
        series_ = TimeSeries();
        audit_.clear();
    }
    TraceSession::global().stop();
}

// Each add double-checks under the lock: a concurrent stop() may
// have cleared the sink between the relaxed gate and the lock, and
// a contribution must never resurrect a stopped sink.

void
RunSink::add(const std::string &prefix, const Snapshot &s)
{
    if (!enabled())
        return;
    MutexLock lock(mu);
    if (enabled_.load(std::memory_order_relaxed))
        stats_.merge(prefix, s);
}

void
RunSink::add(const std::string &prefix, const TimeSeries &series)
{
    if (!enabled())
        return;
    MutexLock lock(mu);
    if (enabled_.load(std::memory_order_relaxed))
        series_.merge(prefix, series);
}

void
RunSink::add(const std::string &run, const AuditLog &log)
{
    if (!enabled())
        return;
    MutexLock lock(mu);
    if (!enabled_.load(std::memory_order_relaxed))
        return;
    AuditLog &slot = audit_[run];
    for (const AuditRecord &r : log.records())
        slot.append(r);
}

Snapshot
RunSink::stats() const
{
    MutexLock lock(mu);
    return stats_;
}

TimeSeries
RunSink::timeseries() const
{
    MutexLock lock(mu);
    return series_;
}

std::string
RunSink::auditCsv() const
{
    MutexLock lock(mu);
    std::string out = std::string(auditCsvHeader()) + "\n";
    for (const auto &[run, log] : audit_)
        out += log.csvRows(run);
    return out;
}

bool
RunSink::write() const
{
    std::string dir;
    {
        MutexLock lock(mu);
        if (!enabled_.load(std::memory_order_relaxed) ||
            dir_.empty())
            return true;
        dir = dir_;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    bool ok = writeWholeFile(dir + "/stats.json", stats().json());
    ok = writeWholeFile(dir + "/timeseries.json",
                        timeseries().json()) &&
         ok;
    ok = writeWholeFile(dir + "/audit.csv", auditCsv()) && ok;
    return TraceSession::global().writeTo(dir + "/trace.json") && ok;
}

bool
hostProfilingEnabled()
{
    return RunSink::global().enabled();
}

} // namespace obs
} // namespace starnuma
