/**
 * @file
 * Data-serving workload: a B+-tree keyed store standing in for
 * Masstree (§IV-E: uniform key popularity, 50/50 read/write). The
 * tree's upper levels are the widely shared hot set; uniform value
 * reads/writes spread read-write sharing across the whole leaf and
 * value space — the access structure behind Masstree's 100%
 * migrations-to-pool in Table IV.
 */

#ifndef STARNUMA_WORKLOADS_KVSTORE_HH
#define STARNUMA_WORKLOADS_KVSTORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace workloads
{

/**
 * Fixed-fanout B+-tree over uint64 keys with 64 B values, bulk-loaded
 * over the dense keys 0..numKeys-1. Its shape depends only on
 * numKeys, so a descent's nodes are computed (DESIGN.md §18).
 */
class KvStore : public Workload
{
  public:
    explicit KvStore(std::uint64_t rng_seed, std::uint32_t keys = 1u
                                                                 << 19,
                     double read_fraction = 0.5);

    std::string name() const override { return "masstree"; }
    void setup(trace::CaptureContext &ctx,
               const SimScale &scale) override;
    void step(ThreadId t, trace::CaptureContext &ctx) override;

    /** Untraced lookup, for correctness tests. */
    bool lookupValue(std::uint64_t key, std::uint64_t *out) const;

    /** Levels of the tree, the leaves included. */
    int
    treeDepth() const
    {
        return static_cast<int>(levelBase.size()) - 1;
    }

    static constexpr int fanout = 14; ///< keys per leaf
    static constexpr int maxLevels = 9; ///< enough for 2^32 keys

    /** Node ids on a descent, indexed by level (0 = the leaf). */
    using Path = std::array<std::uint32_t, maxLevels>;

    /**
     * The nodes a descent to @p key < numKeys visits. Each leaf holds
     * `fanout` consecutive keys and each internal node `fanout + 1`
     * consecutive nodes of the level below.
     */
    Path
    pathTo(std::uint32_t key) const
    {
        Path ids{};
        std::uint32_t index = key / fanout; // within the level
        for (int k = 0; k < treeDepth(); ++k) {
            ids[k] = levelBase[k] + index;
            index /= fanout + 1;
        }
        return ids;
    }

  private:
    std::uint64_t seed;
    std::uint32_t numKeys;
    double readFraction;

    /** Id of each level's first node; the last entry is the count. */
    std::vector<std::uint32_t> levelBase;

    Addr nodeBase = 0;  ///< node storage
    Addr valueBase = 0; ///< 64 B per value
    std::vector<std::uint64_t> values; ///< indexed by key
    std::vector<Rng> threadRng;
};

} // namespace workloads
} // namespace starnuma

#endif // STARNUMA_WORKLOADS_KVSTORE_HH
