/**
 * @file
 * Small shared math helpers for the evaluation kernels.
 *
 * Both evaluation kernels (costmodel/analytical, camodel/simulator)
 * used to carry their own copy of ceilDiv; the copies have to stay
 * bit-identical because ceiling divisions feed tile counts and tile
 * counts feed the golden-pinned PPA numbers. One definition keeps
 * them from drifting.
 *
 * repeatAdd and periodicAdd give the cube simulator's accumulation
 * loops in closed form, bit for bit (DESIGN.md §15).
 */

#ifndef UNICO_COMMON_MATH_HH
#define UNICO_COMMON_MATH_HH

#include <cmath>
#include <cstdint>

namespace unico::common {

/**
 * Integer ceiling division. @p b must be positive; @p a must be
 * non-negative (design spaces and mapping repair guarantee both at
 * every call site). ceilDiv(0, b) == 0. Written as div+mod rather
 * than (a + b - 1) / b so a near INT64_MAX cannot overflow; the two
 * forms agree everywhere the sum form is defined, so golden-pinned
 * tile counts are unchanged.
 */
inline std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return a / b + (a % b != 0 ? 1 : 0);
}

/**
 * ceilDiv computed in double, for hot paths whose consumers want a
 * double anyway: FP division pipelines where 64-bit integer division
 * does not. Exact — equal to double(ceilDiv(a, b)) — for 0 <= a <
 * 2^52, b >= 1: when b does not divide a the true quotient k + r/b
 * (1 <= r < b) is at distance r/b >= 1/b from the integer k, while
 * half an ulp of the rounded quotient is < 2^-52 * a / b <= r/b, so
 * rounding can never cross the integer and ceil() is unaffected.
 */
inline double
ceilDivDouble(std::int64_t a, std::int64_t b)
{
    return std::ceil(static_cast<double>(a) / static_cast<double>(b));
}

/**
 * Exactly what `for (i = 0; i < n; ++i) x += c;` returns, bit for
 * bit. For finite x, c >= 0 (every simulator accumulator) it takes a
 * few steps per binade x crosses instead of n adds; other inputs run
 * the literal loop, stopping once an add leaves x unchanged.
 */
double repeatAdd(double x, double c, std::int64_t n);

/**
 * Exactly what
 * `for (t = 0; t < T; ++t) x += ((t + 1) % k == 0) ? b : a;`
 * returns, bit for bit: T / k periods of (k - 1) `a`s and one `b`,
 * then T % k `a`s. @p k must be positive. Fast, like repeatAdd, for
 * finite x, a, b >= 0.
 */
double periodicAdd(double x, double a, double b, std::int64_t k,
                   std::int64_t T);

} // namespace unico::common

#endif // UNICO_COMMON_MATH_HH
