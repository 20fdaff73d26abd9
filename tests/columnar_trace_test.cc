/**
 * @file
 * Columnar trace format v3 tests: encode→decode round-trip
 * equality on captures of all eight workloads plus hand-built edge
 * traces, and a byte-fuzz robustness suite — every
 * truncation prefix, random corruption, over-long varints, bad
 * magic/version (v2 included), implausible counts, and values that
 * overflow a MemRecord's u32 fields must all make the decoder
 * return false (or decode to *something*) without ever invoking
 * undefined behaviour. scripts/run_ci.sh runs this under
 * ASan/UBSan, which is what turns "no UB" into a checked claim.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "trace/columnar.hh"
#include "trace/trace.hh"
#include "workloads/gap.hh"
#include "workloads/genomics.hh"
#include "workloads/kvstore.hh"
#include "workloads/tpcc.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace trace
{
namespace
{

/** The v3 header magic, "STARCOL3". */
constexpr std::uint64_t v3Magic = 0x53544152434f4c33ULL;

/** Reduced-size workload instances (mirrors workload_test.cc). */
std::unique_ptr<workloads::Workload>
makeSmall(const std::string &name)
{
    using namespace workloads;
    if (name == "bfs")
        return std::make_unique<Bfs>(1, 12, 8);
    if (name == "cc")
        return std::make_unique<ConnectedComponents>(1, 12, 8);
    if (name == "sssp")
        return std::make_unique<Sssp>(1, 12, 8);
    if (name == "tc")
        return std::make_unique<TriangleCount>(1, 12, 8);
    if (name == "masstree")
        return std::make_unique<KvStore>(1, 1u << 14);
    if (name == "tpcc")
        return std::make_unique<Tpcc>(1, 8, 4, 60, 500);
    if (name == "fmi")
        return std::make_unique<Fmi>(1, 1u << 15);
    if (name == "poa")
        return std::make_unique<Poa>(1, 200, 400);
    return makeWorkload(name);
}

SimScale
captureScale()
{
    SimScale s;
    s.sockets = 4;
    s.socketsPerChassis = 2;
    s.coresPerSocket = 2;
    s.phases = 1;
    s.phaseInstructions = 30000;
    return s;
}

/** Field-by-field equality of everything the format stores. */
void
expectTracesEqual(const WorkloadTrace &a, const WorkloadTrace &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.instructionsPerThread, b.instructionsPerThread);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    ASSERT_EQ(a.firstTouches.size(), b.firstTouches.size());
    for (std::size_t i = 0; i < a.firstTouches.size(); ++i) {
        EXPECT_EQ(a.firstTouches[i].page, b.firstTouches[i].page);
        EXPECT_EQ(a.firstTouches[i].thread,
                  b.firstTouches[i].thread);
    }
    EXPECT_EQ(a.writtenPages, b.writtenPages);
    ASSERT_EQ(a.perThread.size(), b.perThread.size());
    for (std::size_t t = 0; t < a.perThread.size(); ++t) {
        ASSERT_EQ(a.perThread[t].size(), b.perThread[t].size())
            << "record count differs for thread " << t;
        for (std::size_t i = 0; i < a.perThread[t].size(); ++i) {
            EXPECT_EQ(a.perThread[t][i].instr,
                      b.perThread[t][i].instr);
            EXPECT_EQ(a.perThread[t][i].packed,
                      b.perThread[t][i].packed);
        }
    }
}

class ColumnarRoundTrip
    : public ::testing::TestWithParam<std::string>
{
};

/**
 * Capture → encode → decode must reproduce every stored field for
 * each of the paper's eight workloads. The page span is *derived*
 * on decode (not stored), so it is checked for containment in the
 * capture-stamped allocator span rather than equality.
 */
TEST_P(ColumnarRoundTrip, AllWorkloadsSurviveEncodeDecode)
{
    WorkloadTrace t = makeSmall(GetParam())->capture(captureScale());
    ASSERT_GT(t.totalRecords(), 100u);
    ASSERT_NE(t.maxPage, PageNum(0)); // capture stamped the span

    std::vector<std::uint8_t> bytes = encodeColumnar(t);
    WorkloadTrace back;
    ASSERT_TRUE(decodeColumnar(bytes.data(), bytes.size(), back));
    expectTracesEqual(t, back);

    // Decode recomputes a (possibly tighter) span from content.
    EXPECT_GE(back.minPage, t.minPage);
    EXPECT_LE(back.maxPage, t.maxPage);
    EXPECT_LE(back.minPage, back.maxPage);

    // And the encoding is smaller than the in-memory records.
    EXPECT_LT(bytes.size(), t.totalRecords() * sizeof(MemRecord));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ColumnarRoundTrip,
    ::testing::ValuesIn(workloads::workloadNames()));

/**
 * Adversarial hand-built trace: the largest values a MemRecord holds
 * (instruction count UINT32_MAX, block 2^31 - 1), full-range swings
 * between them, and zero deltas in both columns.
 */
TEST(ColumnarTrace, EdgeValueRoundTrip)
{
    WorkloadTrace t;
    t.workload = "edge";
    t.threads = 3;
    t.instructionsPerThread = ~std::uint64_t(0) / 2;
    t.footprintBytes = 1;
    t.firstTouches.push_back({PageNum(0), 0});
    t.firstTouches.push_back({PageNum(1ULL << 51), 2}); // jump up
    t.firstTouches.push_back({PageNum(7), 1});          // and down
    t.writtenPages = {PageNum(0), PageNum(123),
                      PageNum(1ULL << 50)};
    t.perThread.resize(3);
    const Addr top = Addr(MemRecord::writeBit - 1) * blockBytes;
    // Thread 0: max-magnitude block swings, alternating writes, up
    // to the largest instruction count.
    t.perThread[0].emplace_back(0, Addr(0), false);
    t.perThread[0].emplace_back(0, top, true);
    t.perThread[0].emplace_back(5, Addr(64), true);
    t.perThread[0].emplace_back(MemRecord::maxInstr, top, false);
    t.perThread[0].emplace_back(MemRecord::maxInstr, Addr(0), true);
    // Thread 1: empty column set.
    // Thread 2: repeated identical records (zero deltas).
    for (int i = 0; i < 20; ++i)
        t.perThread[2].emplace_back(100, Addr(0x10000000), i % 2);
    ASSERT_EQ(t.perThread[0][3].instr, MemRecord::maxInstr);
    ASSERT_EQ(t.perThread[0][1].block(), MemRecord::writeBit - 1);

    std::vector<std::uint8_t> bytes = encodeColumnar(t);
    WorkloadTrace back;
    ASSERT_TRUE(decodeColumnar(bytes.data(), bytes.size(), back));
    expectTracesEqual(t, back);
}

TEST(ColumnarTrace, EmptyTraceRoundTrip)
{
    WorkloadTrace t;
    t.workload = "empty";
    t.threads = 2;
    t.perThread.resize(2);
    std::vector<std::uint8_t> bytes = encodeColumnar(t);
    WorkloadTrace back;
    ASSERT_TRUE(decodeColumnar(bytes.data(), bytes.size(), back));
    expectTracesEqual(t, back);
    // No content pages → span stays at the "unknown" sentinel.
    EXPECT_EQ(back.minPage, PageNum(0));
    EXPECT_EQ(back.maxPage, PageNum(0));
}

// --- Decoder robustness (the fuzz half of the tentpole) ---

/** A small but fully populated encoding for the fuzz cases. */
std::vector<std::uint8_t>
smallEncoding()
{
    WorkloadTrace t;
    t.workload = "fuzz";
    t.threads = 2;
    t.instructionsPerThread = 5000;
    t.footprintBytes = 4 * pageBytes;
    t.firstTouches.push_back({PageNum(0x10000), 0});
    t.firstTouches.push_back({PageNum(0x10001), 1});
    t.writtenPages = {PageNum(0x10000)};
    t.perThread.resize(2);
    for (int i = 0; i < 40; ++i) {
        t.perThread[0].emplace_back(i * 3,
                                    0x10000000 + i * blockBytes,
                                    i % 4 == 0);
        t.perThread[1].emplace_back(i * 7,
                                    0x10002000 + i * pageBytes,
                                    false);
    }
    return encodeColumnar(t);
}

/**
 * Every strict prefix of a valid encoding is missing at least the
 * tail of some column, so decode must report failure on all of
 * them — and must never read past the buffer (ASan-checked).
 */
TEST(ColumnarFuzz, EveryTruncationPrefixFailsCleanly)
{
    std::vector<std::uint8_t> bytes = smallEncoding();
    ASSERT_GT(bytes.size(), 100u);
    WorkloadTrace out;
    for (std::size_t len = 0; len < bytes.size(); ++len)
        EXPECT_FALSE(decodeColumnar(bytes.data(), len, out))
            << "prefix of length " << len
            << " decoded successfully";
    EXPECT_TRUE(
        decodeColumnar(bytes.data(), bytes.size(), out));
}

/**
 * Random single/multi-byte corruption: the decoder may reject or
 * may produce *a* trace (a flipped low block-delta bit is still a
 * well-formed stream), but it must never crash, hang, or trip the
 * sanitizers, and anything it accepts must respect its own bounds.
 */
TEST(ColumnarFuzz, RandomByteCorruptionNeverMisbehaves)
{
    const std::vector<std::uint8_t> pristine = smallEncoding();
    Rng rng(taskSeed({"columnar_fuzz"}));
    int accepted = 0, rejected = 0;
    for (int round = 0; round < 3000; ++round) {
        std::vector<std::uint8_t> bytes = pristine;
        int edits = 1 + static_cast<int>(rng.range32(4));
        for (int e = 0; e < edits; ++e) {
            std::size_t pos = static_cast<std::size_t>(
                rng.range64(0, bytes.size() - 1));
            bytes[pos] = static_cast<std::uint8_t>(rng.next32());
        }
        WorkloadTrace out;
        if (decodeColumnar(bytes.data(), bytes.size(), out)) {
            ++accepted;
            EXPECT_LE(out.threads, 1024);
            EXPECT_EQ(out.perThread.size(),
                      static_cast<std::size_t>(out.threads));
            for (const FirstTouch &ft : out.firstTouches)
                EXPECT_LT(ft.thread, out.threads);
        } else {
            ++rejected;
        }
    }
    // The header is small, so most corruption lands in column data
    // and decodes; both outcomes must actually occur.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

TEST(ColumnarFuzz, GarbageBuffersRejected)
{
    WorkloadTrace out;
    EXPECT_FALSE(decodeColumnar(nullptr, 0, out));

    // An over-long varint (11 continuation bytes) is corrupt even
    // though every byte asks for more.
    std::vector<std::uint8_t> overlong(16, 0xff);
    EXPECT_FALSE(
        decodeColumnar(overlong.data(), overlong.size(), out));

    // Uniformly random buffers essentially never carry the magic.
    Rng rng(taskSeed({"columnar_garbage"}));
    for (int round = 0; round < 500; ++round) {
        std::vector<std::uint8_t> junk(
            1 + rng.range32(256));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.next32());
        EXPECT_FALSE(
            decodeColumnar(junk.data(), junk.size(), out));
    }
}

TEST(ColumnarFuzz, BadMagicAndVersionRejected)
{
    std::vector<std::uint8_t> bytes = smallEncoding();
    WorkloadTrace out;

    // Flip one bit of the magic.
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 1;
    EXPECT_FALSE(decodeColumnar(bad.data(), bad.size(), out));

    // Re-head the v3 body with another magic and version, rest
    // untouched. Decoder must refuse, not guess.
    auto reheaded = [&](std::uint64_t magic, std::uint64_t version) {
        std::vector<std::uint8_t> v;
        putVarint(v, magic);
        std::size_t magic_len = v.size();
        putVarint(v, version);
        // The v3 version byte is right after the magic; skip it.
        v.insert(v.end(), bytes.begin() + magic_len + 1, bytes.end());
        return v;
    };
    std::vector<std::uint8_t> same = reheaded(v3Magic, 3);
    EXPECT_EQ(same, bytes);
    EXPECT_TRUE(decodeColumnar(same.data(), same.size(), out));

    // A future version.
    std::vector<std::uint8_t> future = reheaded(v3Magic, 4);
    EXPECT_FALSE(
        decodeColumnar(future.data(), future.size(), out));

    // The retired v2 header ("STARCOL2", version 2): there is no v2
    // read path, and v2 stored byte addresses, not blocks.
    std::vector<std::uint8_t> v2 = reheaded(0x53544152434f4c32ULL, 2);
    EXPECT_FALSE(decodeColumnar(v2.data(), v2.size(), out));
    std::vector<std::uint8_t> v2_magic =
        reheaded(0x53544152434f4c32ULL, 3);
    EXPECT_FALSE(
        decodeColumnar(v2_magic.data(), v2_magic.size(), out));
}

/**
 * A well-formed one-thread v3 buffer whose two records carry the
 * given instruction and zigzag'd block deltas.
 */
std::vector<std::uint8_t>
twoRecordBuffer(std::uint64_t instr0, std::uint64_t instr1,
                std::int64_t block0, std::int64_t block1)
{
    std::vector<std::uint8_t> b;
    putVarint(b, v3Magic);
    putVarint(b, 3);      // version
    putVarint(b, 0);      // empty name
    putVarint(b, 1);      // one thread
    putVarint(b, 1000);   // instructions
    putVarint(b, 4096);   // footprint
    putVarint(b, 0);      // no first touches
    putVarint(b, 0);      // no written pages
    putVarint(b, 2);      // two records
    putVarint(b, instr0);
    putVarint(b, instr1);
    putVarint(b, zigzag(block0));
    putVarint(b, zigzag(block1));
    b.push_back(0); // write flags
    return b;
}

/**
 * Values that fit the varints but not a MemRecord — an instruction
 * count past UINT32_MAX, a block number at or past 2^31, or one
 * below zero — are corrupt, not silently truncated. The buffers one
 * step short of each bound decode.
 */
TEST(ColumnarFuzz, OutOfRangeRecordValuesRejected)
{
    const std::uint64_t max_instr = MemRecord::maxInstr;
    const std::int64_t max_block = MemRecord::writeBit - 1;
    WorkloadTrace out;
    auto decodes = [&](const std::vector<std::uint8_t> &b) {
        return decodeColumnar(b.data(), b.size(), out);
    };

    EXPECT_TRUE(decodes(twoRecordBuffer(max_instr, 0, 0, max_block)));
    ASSERT_EQ(out.perThread[0].size(), 2u);
    EXPECT_EQ(out.perThread[0][1].instr, max_instr);
    EXPECT_EQ(out.perThread[0][1].block(), MemRecord::writeBit - 1);

    // Instruction delta overflowing u32, in one step and in two.
    EXPECT_FALSE(decodes(twoRecordBuffer(max_instr + 1, 0, 0, 0)));
    EXPECT_FALSE(decodes(twoRecordBuffer(max_instr, 1, 0, 0)));
    EXPECT_FALSE(decodes(twoRecordBuffer(1, ~std::uint64_t(0), 0, 0)));

    // Block delta reaching 2^31, in one step and in two, and a
    // block number below zero.
    EXPECT_FALSE(decodes(twoRecordBuffer(0, 0, max_block + 1, 0)));
    EXPECT_FALSE(decodes(twoRecordBuffer(0, 0, max_block, 1)));
    EXPECT_FALSE(decodes(twoRecordBuffer(0, 0, 0, -1)));
}

/**
 * Length fields larger than the remaining buffer must be rejected
 * before any allocation is attempted (no multi-GB resize on a
 * 50-byte file).
 */
TEST(ColumnarFuzz, ImplausibleCountsRejected)
{
    std::vector<std::uint8_t> bytes;
    putVarint(bytes, v3Magic);
    putVarint(bytes, 3);                     // version
    putVarint(bytes, ~std::uint64_t(0));     // name length: absurd
    WorkloadTrace out;
    EXPECT_FALSE(decodeColumnar(bytes.data(), bytes.size(), out));

    bytes.clear();
    putVarint(bytes, v3Magic);
    putVarint(bytes, 3);
    putVarint(bytes, 0);          // empty name
    putVarint(bytes, 1);          // one thread
    putVarint(bytes, 1000);       // instructions
    putVarint(bytes, 4096);       // footprint
    putVarint(bytes, 1u << 30);   // firstTouch count: absurd
    EXPECT_FALSE(decodeColumnar(bytes.data(), bytes.size(), out));
}

} // anonymous namespace
} // namespace trace
} // namespace starnuma
