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

    std::uint32_t textSize() const { return n; }

  private:
    static constexpr int checkpointStride = 64;

    std::uint8_t occAt(int c, std::uint32_t pos) const;
    std::uint32_t occCount(int c, std::uint32_t pos) const;
    std::uint32_t occCountTraced(trace::CaptureContext &ctx,
                                 ThreadId t, int c,
                                 std::uint32_t pos);

    std::uint64_t seed;
    std::uint32_t n;
    int patternLength;

    std::vector<std::uint8_t> text; ///< 0..3 = ACGT
    std::vector<std::uint8_t> bwt;
    std::array<std::uint32_t, 5> cTable{}; ///< cumulative counts
    std::vector<std::array<std::uint32_t, 4>> checkpoints;

    trace::TracedArray<std::uint8_t> bwtMem;
    trace::TracedArray<std::uint8_t> occMem;
    trace::TracedArray<std::uint8_t> queryMem; ///< per-thread slots
    trace::TracedArray<std::uint8_t> readsMem; ///< cold read sets

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
    trace::TracedArray<std::uint8_t> matrixMem; ///< all threads
    trace::TracedArray<std::uint8_t> dagMem;
};

} // namespace workloads
} // namespace starnuma

#endif // STARNUMA_WORKLOADS_GENOMICS_HH
