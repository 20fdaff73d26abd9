/**
 * @file
 * Content-addressed artifact store (sim/cas/, DESIGN.md §16): hash
 * goldens pinning the FNV-1a-128 object addressing, object
 * round-trips, and the corruption
 * contract — every truncation prefix and every single-byte flip of
 * a stored object must demote to a clean miss, never a wrong
 * payload or undefined behaviour (the suite runs under ASan in the
 * sanitizer CI stage).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/cas/hash.hh"
#include "sim/cas/store.hh"

namespace starnuma
{
namespace
{

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string
readFile(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

bool
writeFile(const std::string &path, const std::string &blob)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::size_t n = std::fwrite(blob.data(), 1, blob.size(), f);
    std::fclose(f);
    return n == blob.size();
}

/**
 * Golden digests from the FNV-1a-128 definition: the empty input
 * pins the offset basis, the other two pin the byte-at-a-time
 * mixing. A mismatch here moves every object address, so every
 * existing store would silently miss.
 */
TEST(CasHash, PinnedGoldens)
{
    EXPECT_EQ(cas::hashString("").hex(),
              "6c62272e07bb014262b821756295c58d");
    EXPECT_EQ(cas::hashString("starnuma").hex(),
              "54b80c2dc2659bafa30a2f62ddd7e422");
    EXPECT_EQ(cas::hashString("starnumb").hex(),
              "54b80c2dc1659bafa30a2f62ddd7e2e7");
}

TEST(CasHash, StreamingMatchesOneShot)
{
    cas::Hasher h;
    h.update(std::string("star"));
    h.update(std::string("numa"));
    EXPECT_EQ(h.digest().hex(), cas::hashString("starnuma").hex());
    EXPECT_NE(cas::hashString("a").hex(),
              cas::hashString("b").hex());
}

TEST(CasStore, RoundTripAndProbes)
{
    cas::Store store(testing::TempDir() + "cas_rt_store");
    store.trim(0);

    std::string key = "kind=test\nname=roundtrip\n";
    std::vector<std::uint8_t> payload = bytes("payload bytes 123");
    EXPECT_FALSE(store.containsObject(key));
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(store.fetchObject(key, out));

    EXPECT_TRUE(store.putObject(key, payload));
    EXPECT_TRUE(store.containsObject(key));
    EXPECT_TRUE(store.fetchObject(key, out));
    EXPECT_EQ(out, payload);
    EXPECT_TRUE(cas::Store::verifyObject(store.objectPath(key)));

    // Distinct keys address distinct objects; same payload is fine.
    std::string key2 = "kind=test\nname=roundtrip2\n";
    EXPECT_TRUE(store.putObject(key2, payload));
    EXPECT_NE(store.objectPath(key), store.objectPath(key2));
    EXPECT_EQ(store.listObjects().size(), 2u);

    // Overwrite with new content: fetch returns the newest.
    std::vector<std::uint8_t> payload2 = bytes("other");
    EXPECT_TRUE(store.putObject(key, payload2));
    EXPECT_TRUE(store.fetchObject(key, out));
    EXPECT_EQ(out, payload2);
    store.trim(0);
    EXPECT_TRUE(store.listObjects().empty());
}

TEST(CasStore, EmptyPayloadAndEmptyKey)
{
    cas::Store store(testing::TempDir() + "cas_empty_store");
    store.trim(0);
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(store.putObject("", {}));
    EXPECT_TRUE(store.fetchObject("", out));
    EXPECT_TRUE(out.empty());
    store.trim(0);
}

/** Every truncation prefix of a valid object is a clean miss. */
TEST(CasStore, TruncationFuzzIsCleanMiss)
{
    cas::Store store(testing::TempDir() + "cas_trunc_store");
    store.trim(0);
    std::string key = "kind=test\nname=trunc\n";
    ASSERT_TRUE(store.putObject(key, bytes("0123456789abcdef")));
    std::string path = store.objectPath(key);
    std::string whole = readFile(path);
    ASSERT_GT(whole.size(), 48u);

    std::vector<std::uint8_t> out;
    for (std::size_t len = 0; len < whole.size(); ++len) {
        ASSERT_TRUE(writeFile(path, whole.substr(0, len)));
        out.assign(1, 0xAA); // poison: a miss must not leak it out
        EXPECT_FALSE(store.fetchObject(key, out))
            << "prefix length " << len;
        EXPECT_FALSE(cas::Store::verifyObject(path))
            << "prefix length " << len;
    }
    ASSERT_TRUE(writeFile(path, whole));
    EXPECT_TRUE(store.fetchObject(key, out));
    store.trim(0);
}

/** Every single-byte flip of a valid object is a clean miss — the
 *  header, the embedded key and the payload are all covered by a
 *  verified field. */
TEST(CasStore, BitFlipFuzzIsCleanMiss)
{
    cas::Store store(testing::TempDir() + "cas_flip_store");
    store.trim(0);
    std::string key = "kind=test\nname=flip\n";
    ASSERT_TRUE(store.putObject(key, bytes("payload-under-test")));
    std::string path = store.objectPath(key);
    std::string whole = readFile(path);

    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < whole.size(); ++i) {
        std::string mutated = whole;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x41);
        ASSERT_TRUE(writeFile(path, mutated));
        EXPECT_FALSE(store.fetchObject(key, out))
            << "flipped byte " << i;
    }
    ASSERT_TRUE(writeFile(path, whole));
    EXPECT_TRUE(store.fetchObject(key, out));
    store.trim(0);
}

TEST(CasStore, TrimEvictsDownToBudget)
{
    cas::Store store(testing::TempDir() + "cas_trim_store");
    store.trim(0);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(store.putObject(
            "kind=test\nname=trim" + std::to_string(i) + "\n",
            std::vector<std::uint8_t>(256, 0x5A)));
    ASSERT_EQ(store.listObjects().size(), 8u);

    // A generous budget keeps everything; zero empties the store.
    EXPECT_EQ(store.trim(1u << 30), 0u);
    EXPECT_EQ(store.listObjects().size(), 8u);
    EXPECT_GT(store.trim(600), 0u);
    EXPECT_LT(store.listObjects().size(), 8u);
    store.trim(0);
    EXPECT_TRUE(store.listObjects().empty());
}

} // anonymous namespace
} // namespace starnuma
