/**
 * @file
 * DDR5 channel model with bank-level parallelism and a shared data
 * bus, at the detail Table II calls for: each memory node (socket or
 * pool) owns one MemoryController with one or more channels; every
 * channel has N banks each occupied for a row-cycle per access, plus
 * a fluid-queue data bus serializing one block per access.
 */

#ifndef STARNUMA_MEM_DRAM_HH
#define STARNUMA_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

namespace mem
{

/** Timing/geometry parameters of one DRAM channel. */
struct DramConfig
{
    /** Unloaded device access latency, end to end (ns). */
    double accessNs = 50.0;

    /** Bank busy (row cycle) time per row-miss access (ns). */
    double bankBusyNs = 40.0;

    /** Bank busy time when the access hits the open row (ns). */
    double rowHitNs = 8.0;

    /** DRAM row size in bytes (row-buffer granularity). */
    Addr rowBytes = 2048;

    /** Per-channel data bus bandwidth (GB/s). */
    double busGbps = 38.4;

    /** Banks per channel (DDR5: 32). */
    int banks = 32;
};

/** One DDR channel: banks + data bus. */
class DramChannel
{
  public:
    explicit DramChannel(const DramConfig &config);

    /**
     * Service a block access to @p addr issued at @p now.
     * @return the cycle the block's data is fully delivered.
     */
    Cycles access(Cycles now, Addr addr);

    /** Unloaded latency of one access, cycles. */
    Cycles unloadedLatency() const;

    std::uint64_t requests() const { return requests_; }
    std::uint64_t rowHits() const { return rowHits_; }
    double meanQueueDelay() const { return queueDelay.mean(); }

    /** Register request/rowHit counters and the queue-delay mean. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    DramConfig cfg;
    Cycles bankBusy;
    Cycles rowHitBusy;
    Cycles deviceLatency; ///< access latency minus bus serialization
    Cycles busSer;
    std::vector<Cycles> bankFree;
    std::vector<Addr> openRow;
    Cycles busFree;
    std::uint64_t requests_;
    std::uint64_t rowHits_;
    stats::Mean queueDelay;
};

/**
 * A node's memory controller: one or more channels, block-
 * interleaved.
 */
class MemoryController
{
  public:
    MemoryController(int channels, const DramConfig &config);

    /** Service an access; picks the channel by block interleaving. */
    Cycles access(Cycles now, Addr addr);

    Cycles unloadedLatency() const;

    int channels() const { return static_cast<int>(chans.size()); }
    std::uint64_t requests() const;
    double meanQueueDelay() const;

    /** Register per-channel stats under prefix.chNN. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    std::vector<DramChannel> chans;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_DRAM_HH
