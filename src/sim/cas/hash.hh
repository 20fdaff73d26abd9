/**
 * @file
 * 128-bit content hashing for the content-addressed artifact store
 * (DESIGN.md §16). FNV-1a widened to 128 bits: not cryptographic,
 * but collision-safe at sweep-matrix scale (thousands of objects) and
 * byte-order independent of the host. This is the store's one
 * implementation; `example_starnuma_cli cache` audits a store
 * through it.
 */

#ifndef STARNUMA_SIM_CAS_HASH_HH
#define STARNUMA_SIM_CAS_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace starnuma
{
namespace cas
{

/** A 128-bit digest, stored as two little-endian u64 halves. */
struct Hash128 {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Hash128 &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool operator!=(const Hash128 &o) const { return !(*this == o); }

    /** 32 lowercase hex digits, hi half first. */
    std::string hex() const;
};

/** Streaming FNV-1a-128. Feed bytes, then digest(). */
class Hasher
{
  public:
    Hasher();

    void update(const void *data, std::size_t size);
    void update(const std::string &s);
    void update(const std::vector<std::uint8_t> &bytes);

    Hash128 digest() const;

  private:
    unsigned __int128 state;
};

/** One-shot convenience over a whole buffer. */
Hash128 hashBytes(const void *data, std::size_t size);
Hash128 hashBytes(const std::vector<std::uint8_t> &bytes);
Hash128 hashString(const std::string &s);

} // namespace cas
} // namespace starnuma

#endif // STARNUMA_SIM_CAS_HASH_HH
