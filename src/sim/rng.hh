/**
 * @file
 * Deterministic pseudo-random number generation (PCG32). Every source
 * of randomness in the repository draws from an explicitly seeded Rng
 * so that workload traces, placements, and migration tie-breaks are
 * exactly reproducible across runs and processes.
 */

#ifndef STARNUMA_SIM_RNG_HH
#define STARNUMA_SIM_RNG_HH

#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace starnuma
{

/**
 * Derive the seed of an independent per-task RNG stream from the
 * task's identity — e.g. {workload, config} plus a phase index —
 * instead of sharing one generator across tasks. Tasks seeded this
 * way draw identical sequences no matter which thread runs them or
 * in what order, which is what lets the parallel driver reproduce
 * serial results bit for bit. FNV-1a over the parts, mixed with a
 * splitmix64 finalizer.
 */
std::uint64_t taskSeed(std::initializer_list<std::string_view> parts,
                       std::uint64_t index = 0);

/**
 * PCG32 generator (O'Neill, 2014): 64-bit state, 32-bit output,
 * period 2^64, passes BigCrush at this size; tiny and fast.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next raw 32-bit value. */
    std::uint32_t
    next32()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        auto xorshifted =
            static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
        auto rot = static_cast<std::uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
    }

    /** Next raw 64-bit value (two draws). */
    std::uint64_t next64();

    /** Uniform integer in [0, bound), bias-free via rejection. */
    std::uint32_t
    range32(std::uint32_t bound)
    {
        if (bound == 0)
            return 0;
        // Rejection sampling to remove modulo bias.
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = next32();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range64(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next64() % (hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform() { return next32() * (1.0 / 4294967296.0); }

    /** Bernoulli draw: true with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric-ish skewed pick in [0, n): index 0 most likely.
     * Used for Zipf-flavored popularity without a full Zipf table.
     */
    std::uint32_t skewed(std::uint32_t n, double theta);

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[range32(static_cast<std::uint32_t>(i))]);
    }

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

} // namespace starnuma

#endif // STARNUMA_SIM_RNG_HH
