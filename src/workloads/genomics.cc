#include "workloads/genomics.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace starnuma
{
namespace workloads
{

// --- FMI ---

void
radixSort(std::vector<std::uint64_t> &keys)
{
    constexpr int digitBits = 11;
    constexpr int passes = (64 + digitBits - 1) / digitBits;
    constexpr std::uint64_t digitMask = (1u << digitBits) - 1;
    const std::size_t n = keys.size();
    if (n < 2)
        return;
    // Every pass's digit histogram, in one read of the keys.
    std::vector<std::array<std::size_t, digitMask + 1>> count(passes);
    for (std::uint64_t k : keys)
        for (int p = 0; p < passes; ++p)
            ++count[p][(k >> (p * digitBits)) & digitMask];
    std::vector<std::uint64_t> out(n);
    for (int p = 0; p < passes; ++p) {
        const int shift = p * digitBits;
        auto &bucket = count[p];
        // A digit every key shares leaves the order as it is.
        if (bucket[(keys[0] >> shift) & digitMask] == n)
            continue;
        std::size_t next = 0;
        for (std::size_t &c : bucket)
            next += std::exchange(c, next);
        for (std::uint64_t k : keys)
            out[bucket[(k >> shift) & digitMask]++] = k;
        keys.swap(out);
    }
}

std::vector<std::uint32_t>
rotationSuffixArray(const std::vector<std::uint8_t> &text)
{
    auto n = static_cast<std::uint32_t>(text.size());
    sn_assert(n > 0 && std::has_single_bit(n),
              "text length %u is not a power of two", n);
    const std::uint32_t mask = n - 1;
    const std::uint8_t *txt = text.data();

    // Pack each rotation's leading characters (2 bits each, first
    // one most significant) above its start position, as many as
    // fit in 64 bits: one integer sort then orders every rotation
    // by that prefix, equal prefixes by position. For n < the
    // prefix length the prefix wraps around the text, which keeps
    // the order: rotations agreeing on n characters are identical.
    const int pos_bits = std::countr_zero(n);
    const int chars = (64 - pos_bits) / 2;
    const std::uint64_t prefix_mask =
        ~std::uint64_t(0) >> (64 - 2 * chars);
    std::uint64_t prefix = 0;
    for (int j = 0; j < chars; ++j)
        prefix = (prefix << 2) | txt[j & mask];
    std::vector<std::uint64_t> keys(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        keys[i] = (prefix << pos_bits) | i;
        prefix = ((prefix << 2) | txt[(i + chars) & mask]) &
                 prefix_mask;
    }
    radixSort(keys);

    // Runs of equal prefixes (rare in random text) are re-sorted by
    // comparing whole cyclic rotations, ties broken by position.
    auto rotation_less = [txt, n, mask](std::uint32_t a,
                                        std::uint32_t b) {
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint8_t ca = txt[(a + i) & mask];
            std::uint8_t cb = txt[(b + i) & mask];
            if (ca != cb)
                return ca < cb;
        }
        return a < b;
    };
    std::vector<std::uint32_t> sa(n);
    for (std::uint32_t i = 0; i < n; ++i)
        sa[i] = static_cast<std::uint32_t>(keys[i] & mask);
    for (std::uint32_t lo = 0; lo < n;) {
        std::uint32_t hi = lo + 1;
        while (hi < n && keys[hi] >> pos_bits == keys[lo] >> pos_bits)
            ++hi;
        if (hi - lo > 1)
            std::sort(sa.begin() + lo, sa.begin() + hi, rotation_less);
        lo = hi;
    }
    return sa;
}

OccTable::OccTable(const std::vector<std::uint8_t> &symbols)
    : blocks(symbols.size() / stride + 1)
{
    std::array<std::uint32_t, 4> running{};
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        Block &block = blocks[b];
        block.count = running;
        std::size_t end = std::min(symbols.size(), (b + 1) * stride);
        for (std::size_t i = b * stride; i < end; ++i) {
            std::uint8_t c = symbols[i];
            block.lo |= std::uint64_t(c & 1) << (i % stride);
            block.hi |= std::uint64_t(c >> 1) << (i % stride);
            ++running[c];
        }
    }
}

Fmi::Fmi(std::uint64_t rng_seed, std::uint32_t text_size,
         int pattern_length)
    : seed(rng_seed), n(text_size), patternLength(pattern_length)
{
}

void
Fmi::setup(trace::CaptureContext &ctx, const SimScale &scale)
{
    int threads = scale.threads();
    threadRng.clear();
    for (int t = 0; t < threads; ++t)
        threadRng.emplace_back(seed + 31 + t);

    // Synthetic genome.
    Rng gen(seed);
    text.resize(n);
    for (auto &c : text)
        c = static_cast<std::uint8_t>(gen.range32(4));

    std::vector<std::uint32_t> sa = rotationSuffixArray(text);

    // BWT, C table and occurrence table.
    std::vector<std::uint8_t> bwt(n);
    cTable.fill(0);
    for (std::uint32_t i = 0; i < n; ++i) {
        bwt[i] = text[(sa[i] + n - 1) & (n - 1)];
        ++cTable[bwt[i] + 1];
    }
    for (int c = 1; c <= 4; ++c)
        cTable[c] += cTable[c - 1];
    occ = OccTable(bwt);

    Addr occ_bytes = occ.blockCount() * 16;
    bwtBase = ctx.alloc(n);
    occBase = ctx.alloc(occ_bytes);
    queryBase = ctx.alloc(static_cast<Addr>(threads) * pageBytes);
    // Per-thread read sets and result buffers: the bulk of a real
    // alignment pipeline's footprint, streamed through rarely. The
    // shared index stays a small, hot fraction of memory, as in
    // GenomicsBench (whose inputs dwarf the index).
    Addr reads_per_thread = 64 * pageBytes;
    readsBase = ctx.alloc(static_cast<Addr>(threads) * reads_per_thread);

    // Partitioned index build: thread t first-touches its slice.
    for (int t = 0; t < threads; ++t) {
        Addr lo = static_cast<Addr>(n) * t / threads;
        Addr hi = static_cast<Addr>(n) * (t + 1) / threads;
        for (Addr a = lo; a < hi; a += pageBytes)
            ctx.store(t, bwtBase + a);
        Addr olo = occ_bytes * t / threads;
        Addr ohi = occ_bytes * (t + 1) / threads;
        for (Addr a = olo; a < ohi; a += pageBytes)
            ctx.store(t, occBase + a);
        ctx.store(t, queryBase + t * pageBytes);
        for (Addr a = 0; a < 64 * pageBytes; a += pageBytes)
            ctx.store(t, readsBase +
                             static_cast<Addr>(t) * 64 * pageBytes + a);
    }
}

std::uint32_t
Fmi::occCountTraced(trace::CaptureContext &ctx, ThreadId t, int c,
                    std::uint32_t pos)
{
    std::uint32_t cp = pos / OccTable::stride;
    // One load for the checkpoint entry, one for the BWT line the
    // residual scan covers (64 chars fit one cache line).
    ctx.load(t, occBase + static_cast<Addr>(cp) * 16);
    ctx.load(t, bwtBase + static_cast<Addr>(cp) * OccTable::stride);
    ctx.instr(t, 10);
    return occ.count(c, pos);
}

std::uint64_t
Fmi::count(const std::string &pattern) const
{
    std::uint32_t lo = 0, hi = n;
    for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
        int c = *it;
        lo = cTable[c] + occ.count(c, lo);
        hi = cTable[c] + occ.count(c, hi);
        if (lo >= hi)
            return 0;
    }
    return hi - lo;
}

void
Fmi::step(ThreadId t, trace::CaptureContext &ctx)
{
    Rng &rng = threadRng[t];
    // Fetch the next read from the thread's (cold, private) read
    // set, then backward-search it against the shared index.
    std::uint32_t start =
        rng.range32(n - static_cast<std::uint32_t>(patternLength));
    ctx.load(t, readsBase + static_cast<Addr>(t) * 64 * pageBytes +
                    (rng.next32() % (64 * pageBytes / blockBytes)) *
                        blockBytes);
    ctx.load(t, queryBase + static_cast<Addr>(t) * pageBytes);
    ctx.instr(t, 6);

    std::uint32_t lo = 0, hi = n;
    for (int i = patternLength - 1; i >= 0; --i) {
        int c = text[start + i];
        lo = cTable[c] + occCountTraced(ctx, t, c, lo);
        hi = cTable[c] + occCountTraced(ctx, t, c, hi);
        ctx.instr(t, 6);
        if (lo >= hi)
            break;
    }
    sn_assert(lo < hi, "planted pattern must match");
}

// --- POA ---

Poa::Poa(std::uint64_t rng_seed, int seq_length, int max_nodes)
    : seed(rng_seed), seqLength(seq_length), maxNodes(max_nodes)
{
}

std::int16_t &
Poa::cell(ThreadPoa &s, int node, int j)
{
    return s.matrix[static_cast<std::size_t>(node) *
                        (seqLength + 1) + j];
}

namespace
{

Addr
roundToPage(Addr bytes)
{
    // Per-thread arenas are aligned to the migration region size
    // (64 KB), like real per-thread heap arenas: no region ever
    // spans two threads' private data.
    constexpr Addr arena = 64 * 1024;
    return (bytes + arena - 1) / arena * arena;
}

} // anonymous namespace

Addr
Poa::cellAddr(ThreadId t, int node, int j) const
{
    // Per-thread slices are page aligned so no page is shared
    // between threads (POA's whole point is thread privacy).
    Addr per_thread = roundToPage(
        static_cast<Addr>(maxNodes) * (seqLength + 1) * 2);
    return matrixBase + static_cast<Addr>(t) * per_thread +
           (static_cast<Addr>(node) * (seqLength + 1) + j) * 2;
}

Addr
Poa::dagAddr(ThreadId t, int node) const
{
    Addr per_thread = roundToPage(static_cast<Addr>(maxNodes) * 8);
    return dagBase + static_cast<Addr>(t) * per_thread +
           static_cast<Addr>(node) * 8;
}

void
Poa::setup(trace::CaptureContext &ctx, const SimScale &scale)
{
    threads = scale.threads();
    state.assign(threads, ThreadPoa{});

    std::size_t cells_per_thread =
        static_cast<std::size_t>(maxNodes) * (seqLength + 1);
    Addr matrix_stride = roundToPage(
        static_cast<Addr>(maxNodes) * (seqLength + 1) * 2);
    Addr dag_stride = roundToPage(static_cast<Addr>(maxNodes) * 8);
    matrixBase = ctx.alloc(static_cast<Addr>(threads) * matrix_stride);
    dagBase = ctx.alloc(static_cast<Addr>(threads) * dag_stride);

    for (ThreadId t = 0; t < threads; ++t) {
        ThreadPoa &s = state[t];
        s.rng = Rng(seed + 555 + t);
        s.matrix.assign(cells_per_thread, 0);
        // Thread-private first touch of matrix and DAG memory.
        for (Addr a = 0; a < matrix_stride; a += pageBytes)
            ctx.store(t, cellAddr(t, 0, 0) + a);
        for (Addr a = 0; a < dag_stride; a += pageBytes)
            ctx.store(t, dagAddr(t, 0) + a);
        // Seed the DAG with the first sequence (a linear chain).
        s.dagChar.clear();
        s.dagPred.clear();
        for (int i = 0; i < seqLength; ++i) {
            s.dagChar.push_back(
                static_cast<std::uint8_t>(s.rng.range32(4)));
            s.dagPred.push_back(i - 1);
        }
        newSequence(t, ctx, false);
    }
}

void
Poa::newSequence(ThreadId t, trace::CaptureContext &ctx, bool traced)
{
    ThreadPoa &s = state[t];
    // A mutated copy of the consensus so alignments are realistic.
    s.seq.clear();
    for (int i = 0; i < seqLength; ++i) {
        std::uint8_t c = i < static_cast<int>(s.dagChar.size())
                             ? s.dagChar[i]
                             : static_cast<std::uint8_t>(
                                   s.rng.range32(4));
        if (s.rng.chance(0.05))
            c = static_cast<std::uint8_t>(s.rng.range32(4));
        s.seq.push_back(c);
        if (traced)
            ctx.instr(t, 2);
    }
    s.phase = Phase::Fill;
    s.row = 0;
}

void
Poa::fillRow(ThreadId t, trace::CaptureContext &ctx)
{
    ThreadPoa &s = state[t];
    int node = s.row;
    int pred = s.dagPred[node];
    ctx.load(t, dagAddr(t, node));

    constexpr int lineCells = 32; // 64 B / int16
    for (int j = 1; j <= seqLength; ++j) {
        std::int16_t up =
            pred >= 0 ? cell(s, pred, j) : static_cast<std::int16_t>(
                                               -2 * j);
        std::int16_t left = cell(s, node, j - 1);
        std::int16_t diag =
            pred >= 0 ? cell(s, pred, j - 1)
                      : static_cast<std::int16_t>(-2 * (j - 1));
        bool match = s.dagChar[node] == s.seq[j - 1];
        std::int16_t best = std::max<std::int16_t>(
            std::max<std::int16_t>(
                static_cast<std::int16_t>(up - 2),
                static_cast<std::int16_t>(left - 2)),
            static_cast<std::int16_t>(diag + (match ? 2 : -1)));
        cell(s, node, j) = best;
        ctx.instr(t, 3);
        if (j % lineCells == 0) {
            if (pred >= 0)
                ctx.load(t, cellAddr(t, pred, j));
            ctx.store(t, cellAddr(t, node, j));
        }
    }
    ++s.row;
    if (s.row >= static_cast<int>(s.dagChar.size())) {
        s.phase = Phase::Traceback;
        s.tracebackRow = static_cast<int>(s.dagChar.size()) - 1;
    }
}

void
Poa::traceback(ThreadId t, trace::CaptureContext &ctx)
{
    ThreadPoa &s = state[t];
    // Walk back up the matrix, one row per node, reading scores and
    // appending mismatch nodes to the DAG.
    int j = seqLength;
    for (int node = s.tracebackRow; node >= 0 && j > 0; --node) {
        ctx.load(t, cellAddr(t, node, j));
        ctx.instr(t, 4);
        bool match = s.dagChar[node] == s.seq[j - 1];
        if (!match && s.rng.chance(0.25) &&
            static_cast<int>(s.dagChar.size()) < maxNodes) {
            // Insert the mismatching base as a new DAG node.
            s.dagChar.push_back(s.seq[j - 1]);
            s.dagPred.push_back(node > 0 ? node - 1 : -1);
            ctx.store(t, dagAddr(
                             t, static_cast<int>(s.dagChar.size()) -
                                    1));
        }
        --j;
    }
    ++s.done;
    if (static_cast<int>(s.dagChar.size()) >= maxNodes) {
        // Graph saturated: start a fresh consensus.
        s.dagChar.resize(seqLength);
        s.dagPred.resize(seqLength);
    }
    newSequence(t, ctx, true);
}

void
Poa::step(ThreadId t, trace::CaptureContext &ctx)
{
    ThreadPoa &s = state[t];
    if (s.phase == Phase::Fill)
        fillRow(t, ctx);
    else
        traceback(t, ctx);
}

std::uint64_t
Poa::alignmentsDone(ThreadId t) const
{
    return state[t].done;
}

} // namespace workloads
} // namespace starnuma
