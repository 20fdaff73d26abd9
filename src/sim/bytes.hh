/**
 * @file
 * Byte-serialization primitives shared by every StarNUMA artifact
 * encoder: LEB128 varints, zigzag signed mapping, fixed-width
 * little-endian scalars, and the bounds-checked ByteReader cursor.
 *
 * They live in the sim layer so the artifact store (sim/cas), the
 * trace format and the driver's checkpoint and result encoders share
 * one implementation without violating the D6 include DAG.
 * trace/columnar.hh re-exports them into namespace trace
 * (`trace::putVarint`, `trace::ByteReader`, ...).
 *
 * Every decoder built on ByteReader is fully bounds-checked:
 * truncation, over-long varints and impossible counts all surface as
 * a false return — never undefined behaviour.
 */

#ifndef STARNUMA_SIM_BYTES_HH
#define STARNUMA_SIM_BYTES_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace starnuma
{

/** LEB128 append of @p v to @p out (1-10 bytes). */
inline void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/** Map signed to unsigned so small magnitudes stay small. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Fixed-width little-endian u64 append (header fields). */
inline void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** IEEE-754 bit pattern of @p v as a varint (scalar channels). */
inline void
putDouble(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    putVarint(out, bits);
}

/** Length-prefixed UTF-8 string append. */
inline void
putString(std::vector<std::uint8_t> &out, const std::string &s)
{
    putVarint(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

/** Bounds-checked cursor over an encoded byte buffer. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : p(data), end(data + size)
    {
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - p);
    }

    /** @return false on truncation or an over-long varint. */
    bool
    getVarint(std::uint64_t &v)
    {
        v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (p == end)
                return false;
            std::uint8_t byte = *p++;
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return true;
        }
        return false; // > 10 bytes: corrupt
    }

    /** Fixed-width little-endian u64 (the v1 trace and checkpoint
     *  headers use fixed fields). @return false on truncation. */
    bool
    getU64(std::uint64_t &v)
    {
        if (remaining() < 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        p += 8;
        return true;
    }

    /** Varint-carried IEEE-754 bit pattern. */
    bool
    getDouble(double &v)
    {
        std::uint64_t bits = 0;
        if (!getVarint(bits))
            return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }

    /** Length-prefixed string with a sanity cap on the length. */
    bool
    getString(std::string &s, std::size_t maxLen = 1 << 20)
    {
        std::uint64_t n = 0;
        if (!getVarint(n) || n > maxLen || n > remaining())
            return false;
        s.assign(reinterpret_cast<const char *>(p),
                 static_cast<std::size_t>(n));
        p += n;
        return true;
    }

    bool
    getBytes(void *dst, std::size_t n)
    {
        if (remaining() < n)
            return false;
        std::uint8_t *out = static_cast<std::uint8_t *>(dst);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = p[i];
        p += n;
        return true;
    }

  private:
    const std::uint8_t *p;
    const std::uint8_t *end;
};

} // namespace starnuma

#endif // STARNUMA_SIM_BYTES_HH
