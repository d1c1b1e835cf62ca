/**
 * @file
 * Deterministic pseudo-random number generation used throughout UNICO.
 *
 * All stochastic components of the framework (hardware sampling,
 * mapping search mutation, NSGA-II operators, ...) draw from an
 * explicitly seeded Rng so that every experiment in the paper
 * reproduction is bit-for-bit repeatable.
 */

#ifndef UNICO_COMMON_RNG_HH
#define UNICO_COMMON_RNG_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace unico::common {

/**
 * splitmix64 step: add the golden-ratio increment to @p z, then apply
 * the full-avalanche finalizer. A bijection on 64-bit words; the
 * repo's one cheap deterministic mixer (fingerprints, fleet
 * placement, chaos draws, seed expansion).
 */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * SplitMix64 generator, used to expand a single 64-bit seed into the
 * state of the main xoshiro256** generator.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /** Next 64 bits of the stream. */
    std::uint64_t
    next()
    {
        const std::uint64_t z = state_;
        state_ += 0x9e3779b97f4a7c15ULL;
        return mix64(z);
    }

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256** based random number generator with convenience helpers.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can be
 * used with standard <random> distributions if needed, but the
 * helpers below avoid the cross-platform nondeterminism of libstdc++
 * distribution implementations.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Raw 64 random bits. */
    result_type operator()() { return next(); }

    /** Raw 64 random bits. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal variate (Box-Muller, cached second value). */
    double gaussian();

    /** Normal variate with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli draw with success probability p. */
    bool bernoulli(double p);

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        if (v.size() < 2)
            return;
        for (std::size_t i = v.size() - 1; i > 0; --i) {
            std::size_t j = uniformInt(i + 1);
            std::swap(v[i], v[j]);
        }
    }

    /** Pick a uniformly random element (container must be non-empty). */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[uniformInt(v.size())];
    }

    /** Full generator state, for checkpoint/resume. */
    struct State
    {
        std::uint64_t s[4] = {0, 0, 0, 0};
        bool hasCachedGaussian = false;
        double cachedGaussian = 0.0;
    };

    /** Snapshot the generator state. */
    State
    saveState() const
    {
        State st;
        for (int i = 0; i < 4; ++i)
            st.s[i] = state_[i];
        st.hasCachedGaussian = hasCachedGaussian_;
        st.cachedGaussian = cachedGaussian_;
        return st;
    }

    /** Restore a snapshot taken with saveState(). */
    void
    restoreState(const State &st)
    {
        for (int i = 0; i < 4; ++i)
            state_[i] = st.s[i];
        hasCachedGaussian_ = st.hasCachedGaussian;
        cachedGaussian_ = st.cachedGaussian;
    }

  private:
    std::uint64_t state_[4];
    bool hasCachedGaussian_ = false;
    double cachedGaussian_ = 0.0;
};

} // namespace unico::common

#endif // UNICO_COMMON_RNG_HH
