/**
 * @file
 * The two GenomicsBench stand-ins (§IV-E). FMI builds a real
 * FM-index (suffix array -> BWT -> sampled occurrence table) over a
 * synthetic genome and serves backward-search count queries: random
 * reads into a large shared read-only index. POA performs partial-
 * order alignment of per-thread sequence sets against per-thread
 * graphs: large streaming DP matrices that are entirely thread-
 * private — the paper's NUMA-insensitive control workload (all
 * accesses local, no migrations, Table IV: 0%).
 */

#ifndef STARNUMA_WORKLOADS_GENOMICS_HH
#define STARNUMA_WORKLOADS_GENOMICS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace workloads
{

/**
 * Suffix array of the cyclic rotations of @p text (the BWT
 * convention): every start position, ordered by its rotation
 * compared character by character, equal rotations by position.
 * @p text holds symbols 0..3 and its length is a power of two.
 */
std::vector<std::uint32_t>
rotationSuffixArray(const std::vector<std::uint8_t> &text);

/**
 * Sort @p keys ascending: an LSD radix sort, 11 bits a pass, that
 * skips every pass whose digit all keys share. Integers have one
 * ascending order, so the result equals std::sort's.
 */
void radixSort(std::vector<std::uint64_t> &keys);

/**
 * Occurrence counts over a sequence of symbols 0..3 (a BWT):
 * count(c, pos) is the number of c among its first pos symbols. One
 * 32-byte block per 64 positions holds the four counts before the
 * block and the two bit planes of its symbols, so a query reads one
 * block and counts the matching bits below pos.
 */
class OccTable
{
  public:
    static constexpr std::uint32_t stride = 64; ///< positions per block

    OccTable() = default;
    explicit OccTable(const std::vector<std::uint8_t> &symbols);

    std::uint32_t
    count(int c, std::uint32_t pos) const
    {
        const Block &b = blocks[pos / stride];
        // All-ones where a plane's bit must be set, else all-zeros.
        std::uint64_t lo = b.lo ^ (std::uint64_t(c & 1) - 1);
        std::uint64_t hi = b.hi ^ (std::uint64_t(c >> 1) - 1);
        std::uint64_t below = (std::uint64_t(1) << (pos % stride)) - 1;
        return b.count[c] +
               static_cast<std::uint32_t>(std::popcount(lo & hi & below));
    }

    /** Blocks: one per 64 positions, plus one at the end. */
    std::size_t blockCount() const { return blocks.size(); }

  private:
    struct alignas(32) Block
    {
        std::array<std::uint32_t, 4> count{};
        std::uint64_t lo = 0; ///< bit i: low bit of symbol i
        std::uint64_t hi = 0; ///< bit i: high bit of symbol i
    };

    std::vector<Block> blocks;
};

/** FM-index (Full-text Minute-space Index) backward search. */
class Fmi : public Workload
{
  public:
    explicit Fmi(std::uint64_t rng_seed, std::uint32_t text_size = 1u
                                                               << 21,
                 int pattern_length = 16);

    std::string name() const override { return "fmi"; }
    void setup(trace::CaptureContext &ctx,
               const SimScale &scale) override;
    void step(ThreadId t, trace::CaptureContext &ctx) override;

    /** Untraced count query (correctness checks). */
    std::uint64_t count(const std::string &pattern) const;

  private:
    std::uint32_t occCountTraced(trace::CaptureContext &ctx,
                                 ThreadId t, int c,
                                 std::uint32_t pos);

    std::uint64_t seed;
    std::uint32_t n;
    int patternLength;

    std::vector<std::uint8_t> text; ///< 0..3 = ACGT
    std::array<std::uint32_t, 5> cTable{}; ///< cumulative counts
    OccTable occ;

    // Simulated layout: the BWT at one byte per symbol, then the
    // occurrence checkpoints at 16 B per 64 positions.
    Addr bwtBase = 0;
    Addr occBase = 0;
    Addr queryBase = 0; ///< per-thread slots
    Addr readsBase = 0; ///< cold read sets

    std::vector<Rng> threadRng;
};

/** Partial-Order Alignment over per-thread sequence graphs. */
class Poa : public Workload
{
  public:
    explicit Poa(std::uint64_t rng_seed, int seq_length = 400,
                 int max_nodes = 800);

    std::string name() const override { return "poa"; }
    void setup(trace::CaptureContext &ctx,
               const SimScale &scale) override;
    void step(ThreadId t, trace::CaptureContext &ctx) override;

    /** Alignments completed by thread @p t (progress check). */
    std::uint64_t alignmentsDone(ThreadId t) const;

  private:
    enum class Phase { Fill, Traceback };

    struct ThreadPoa
    {
        std::vector<std::uint8_t> dagChar;
        std::vector<std::int32_t> dagPred;
        std::vector<std::uint8_t> seq;
        std::vector<std::int16_t> matrix; ///< (nodes x (L+1)) DP
        Phase phase = Phase::Fill;
        int row = 0;       ///< next DP row (DAG node) to fill
        int tracebackRow = 0;
        std::uint64_t done = 0;
        Rng rng{0};
    };

    void newSequence(ThreadId t, trace::CaptureContext &ctx,
                     bool traced);
    void fillRow(ThreadId t, trace::CaptureContext &ctx);
    void traceback(ThreadId t, trace::CaptureContext &ctx);

    std::int16_t &cell(ThreadPoa &s, int node, int j);
    Addr cellAddr(ThreadId t, int node, int j) const;
    Addr dagAddr(ThreadId t, int node) const;

    std::uint64_t seed;
    int seqLength;
    int maxNodes;
    int threads = 0;

    std::vector<ThreadPoa> state;
    Addr matrixBase = 0; ///< all threads
    Addr dagBase = 0;
};

} // namespace workloads
} // namespace starnuma

#endif // STARNUMA_WORKLOADS_GENOMICS_HH
