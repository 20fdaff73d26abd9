#include "driver/artifact_cache.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "driver/artifact_key.hh"
#include "sim/cas/code_epoch.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace driver
{

ArtifactCache &
ArtifactCache::global()
{
    static ArtifactCache cache;
    return cache;
}

// lint: cold-path once-per-tier store lookup (a mutex-guarded
// shared_ptr copy), never per replay record
std::shared_ptr<cas::Store>
ArtifactCache::store()
{
    MutexLock lock(mu);
    if (!initialized) {
        initialized = true;
        // Default *off*: persisting every sweep artifact (step-A
        // traces included) is an opt-in.
        const char *env = std::getenv("STARNUMA_CACHE_DIR");
        if (env != nullptr) {
            std::string dir = env;
            if (!dir.empty() && dir != "0" && dir != "off")
                store_ = std::make_shared<cas::Store>(dir);
        }
    }
    return store_;
}

void
ArtifactCache::enable(const std::string &dir)
{
    MutexLock lock(mu);
    initialized = true;
    store_ = std::make_shared<cas::Store>(dir);
}

void
ArtifactCache::disable()
{
    MutexLock lock(mu);
    initialized = true;
    store_.reset();
}

void
ArtifactCache::resetCounters()
{
    traceHits_.store(0, std::memory_order_relaxed);
    traceMisses_.store(0, std::memory_order_relaxed);
    resultHits_.store(0, std::memory_order_relaxed);
    resultMisses_.store(0, std::memory_order_relaxed);
    partialHits_.store(0, std::memory_order_relaxed);
    phasesSkipped_.store(0, std::memory_order_relaxed);
    bytesRead_.store(0, std::memory_order_relaxed);
    bytesWritten_.store(0, std::memory_order_relaxed);
    hitNanos_.store(0, std::memory_order_relaxed);
    missNanos_.store(0, std::memory_order_relaxed);
}

// lint: cold-path stats registration, once per sweep report
void
ArtifactCache::registerStats(obs::Registry &r,
                             const std::string &prefix) const
{
    auto count = [this, &r,
                  &prefix](const char *name,
                           const std::atomic<std::uint64_t> *c) {
        r.addCounterFn(prefix + name, [c] { return get(*c); });
    };
    count("traceHits", &traceHits_);
    count("traceMisses", &traceMisses_);
    count("resultHits", &resultHits_);
    count("resultMisses", &resultMisses_);
    count("partialHits", &partialHits_);
    count("phasesSkipped", &phasesSkipped_);
    count("bytesRead", &bytesRead_);
    count("bytesWritten", &bytesWritten_);
    // Host-profiling tier times (operator dashboards; never part of
    // deterministic artifacts — see noteHitNanos).
    r.addGaugeFn(prefix + "hitSeconds", [this] {
        return static_cast<double>(get(hitNanos_)) * 1e-9;
    });
    r.addGaugeFn(prefix + "missSeconds", [this] {
        return static_cast<double>(get(missNanos_)) * 1e-9;
    });
}

std::uint64_t
cacheNowNanos()
{
    // lint: taint-ok host-profiling cache-tier time attribution
    // only; these wall-clock values feed the hit/miss second gauges
    // for operator reports and never enter deterministic
    // simulation artifacts
    auto now = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
}

StoreAudit
auditStore(cas::Store &store, bool dropBad,
           std::optional<std::uint64_t> maxBytes)
{
    const std::string epoch = cas::codeEpoch();
    StoreAudit audit;
    for (const std::string &rel : store.listObjects()) {
        const std::string path = store.directory() + "/" + rel;
        StoreAudit::Object o{rel, "", ObjectStatus::Invalid};
        std::string key;
        if (cas::Store::verifyObject(path, &key) &&
            store.objectPath(key) == path) {
            o.status = keyField(key, "code.epoch") == epoch
                           ? ObjectStatus::Ok
                           : ObjectStatus::Stale;
            o.kind = keyField(key, "kind");
        }
        switch (o.status) {
          case ObjectStatus::Ok: ++audit.ok; break;
          case ObjectStatus::Stale: ++audit.stale; break;
          case ObjectStatus::Invalid: ++audit.invalid; break;
        }
        if (dropBad && o.status != ObjectStatus::Ok)
            std::remove(path.c_str());
        audit.objects.push_back(std::move(o));
    }
    if (maxBytes)
        store.trim(*maxBytes);
    return audit;
}

obs::Snapshot
sweepCacheSnapshot()
{
    obs::Registry reg;
    ArtifactCache::global().registerStats(reg, "");
    return reg.snapshot();
}

} // namespace driver
} // namespace starnuma
