#include "sim/rng.hh"

#include <cmath>

namespace starnuma
{

std::uint64_t
taskSeed(std::initializer_list<std::string_view> parts,
         std::uint64_t index)
{
    // FNV-1a, with a 0xff separator per part so {"ab","c"} and
    // {"a","bc"} map to different streams.
    std::uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](unsigned char byte) {
        h ^= byte;
        h *= 1099511628211ULL;
    };
    for (std::string_view part : parts) {
        for (char c : part)
            mix(static_cast<unsigned char>(c));
        mix(0xff);
    }
    for (int i = 0; i < 8; ++i)
        mix(static_cast<unsigned char>(index >> (8 * i)));

    // splitmix64 finalizer: spreads FNV's weak low bits.
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state(0), inc((stream << 1) | 1)
{
    next32();
    state += seed;
    next32();
}

std::uint64_t
Rng::next64()
{
    // High word first, sequenced explicitly.
    std::uint64_t hi = next32();
    return (hi << 32) | next32();
}

std::uint32_t
Rng::skewed(std::uint32_t n, double theta)
{
    // Inverse-CDF of a bounded Pareto-like distribution: cheap
    // approximation of Zipf popularity adequate for workload skew.
    double u = uniform();
    double x = std::pow(u, theta) * n;
    auto idx = static_cast<std::uint32_t>(x);
    return idx >= n ? n - 1 : idx;
}

} // namespace starnuma
