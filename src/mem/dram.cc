#include "mem/dram.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace mem
{

DramChannel::DramChannel(const DramConfig &config)
    : cfg(config), bankBusy(nsToCycles(config.bankBusyNs)),
      rowHitBusy(nsToCycles(config.rowHitNs)),
      busSer(serializationCycles(blockBytes, config.busGbps)),
      bankFree(config.banks, Cycles()),
      openRow(config.banks, ~Addr(0)), busFree(), requests_(0),
      rowHits_(0)
{
    sn_assert(config.banks > 0, "channel needs at least one bank");
    // Keep the unloaded end-to-end latency equal to accessNs by
    // folding the bus serialization into the device portion.
    Cycles total = nsToCycles(cfg.accessNs);
    deviceLatency = total > busSer ? total - busSer : Cycles();
}

Cycles
DramChannel::access(Cycles now, Addr addr)
{
    ++requests_;
    auto bank = static_cast<std::size_t>(
        (addr / blockBytes) % bankFree.size());

    // Row-buffer: back-to-back accesses to the same DRAM row only
    // occupy the bank for a column access, not a full row cycle.
    Addr row = addr / cfg.rowBytes;
    bool row_hit = openRow[bank] == row;
    rowHits_ += row_hit;
    openRow[bank] = row;

    Cycles start = std::max(now, bankFree[bank]);
    bankFree[bank] = start + (row_hit ? rowHitBusy : bankBusy);

    Cycles data_ready = start + deviceLatency;
    Cycles bus_start = std::max(data_ready, busFree);
    busFree = bus_start + busSer;

    Cycles done = bus_start + busSer;
    queueDelay.sample(static_cast<double>((done - now).value()) -
                      static_cast<double>(unloadedLatency().value()));
    return done;
}

Cycles
DramChannel::unloadedLatency() const
{
    return deviceLatency + busSer;
}

MemoryController::MemoryController(int channels,
                                   const DramConfig &config)
{
    sn_assert(channels > 0, "controller needs at least one channel");
    chans.reserve(channels);
    for (int i = 0; i < channels; ++i)
        chans.emplace_back(config);
}

Cycles
MemoryController::access(Cycles now, Addr addr)
{
    DramChannel &chan =
        chans[static_cast<std::size_t>((addr / blockBytes) %
                                       chans.size())];
    return chan.access(now, addr);
}

Cycles
MemoryController::unloadedLatency() const
{
    return chans.front().unloadedLatency();
}

std::uint64_t
MemoryController::requests() const
{
    std::uint64_t total = 0;
    for (const auto &c : chans)
        total += c.requests();
    return total;
}

double
MemoryController::meanQueueDelay() const
{
    double sum = 0;
    std::uint64_t n = 0;
    for (const auto &c : chans) {
        sum += c.meanQueueDelay() *
               static_cast<double>(c.requests());
        n += c.requests();
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

// lint: cold-path stats export, once per run when observing
void
DramChannel::registerStats(obs::Registry &r,
                           const std::string &prefix) const
{
    r.addCounter(prefix + ".requests", &requests_);
    r.addCounter(prefix + ".rowHits", &rowHits_);
    r.addMean(prefix + ".queueDelay", &queueDelay);
}

// lint: cold-path stats export, once per run when observing
void
MemoryController::registerStats(obs::Registry &r,
                                const std::string &prefix) const
{
    r.addCounterFn(prefix + ".requests",
                   [this] { return requests(); });
    r.addGaugeFn(prefix + ".meanQueueDelay",
                 [this] { return meanQueueDelay(); });
    for (std::size_t c = 0; c < chans.size(); ++c) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), ".ch%02zu", c);
        chans[c].registerStats(r, prefix + buf);
    }
}

} // namespace mem
} // namespace starnuma
