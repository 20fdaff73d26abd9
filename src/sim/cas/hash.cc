#include "sim/cas/hash.hh"

namespace starnuma
{
namespace cas
{
namespace
{

// FNV-1a 128-bit parameters (draft-eastlake-fnv). Object addresses
// depend on them: CasHash.PinnedGoldens pins the digests.
constexpr unsigned __int128
u128(std::uint64_t hi, std::uint64_t lo)
{
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
}

constexpr unsigned __int128 FNV_OFFSET =
    u128(0x6c62272e07bb0142ULL, 0x62b821756295c58dULL);
constexpr unsigned __int128 FNV_PRIME =
    u128(0x0000000001000000ULL, 0x000000000000013bULL);

} // namespace

std::string
Hash128::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
        std::uint64_t half = i < 8 ? hi : lo;
        int shift = 8 * (7 - (i % 8));
        std::uint8_t byte =
            static_cast<std::uint8_t>(half >> shift);
        out[2 * i] = digits[byte >> 4];
        out[2 * i + 1] = digits[byte & 0xf];
    }
    return out;
}

Hasher::Hasher() : state(FNV_OFFSET) {}

void
Hasher::update(const void *data, std::size_t size)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    unsigned __int128 h = state;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= FNV_PRIME;
    }
    state = h;
}

void
Hasher::update(const std::string &s)
{
    update(s.data(), s.size());
}

void
Hasher::update(const std::vector<std::uint8_t> &bytes)
{
    update(bytes.data(), bytes.size());
}

Hash128
Hasher::digest() const
{
    Hash128 out;
    out.hi = static_cast<std::uint64_t>(state >> 64);
    out.lo = static_cast<std::uint64_t>(state);
    return out;
}

Hash128
hashBytes(const void *data, std::size_t size)
{
    Hasher h;
    h.update(data, size);
    return h.digest();
}

Hash128
hashBytes(const std::vector<std::uint8_t> &bytes)
{
    return hashBytes(bytes.data(), bytes.size());
}

Hash128
hashString(const std::string &s)
{
    return hashBytes(s.data(), s.size());
}

} // namespace cas
} // namespace starnuma
