#include "common/math.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace unico::common {

// The helpers below are declared inline because GCC at -O2 otherwise
// keeps some of them out of line, which made the binade walk about a
// quarter slower.
namespace {

/** Multiples of the ulp in one binade: x < 2^53 ulp inside it. */
constexpr std::int64_t kBinadeUlps = std::int64_t{1} << 53;

/** True for +0 and for positive finite doubles. */
inline bool
nonNegativeFinite(double v)
{
    return !std::signbit(v) && v < HUGE_VAL;
}

/**
 * True for +0 and for positive multiples of 2^-16 below 2^35. Any
 * sum of such values below 2^36 needs at most 52 significant bits,
 * so every partial sum of a run of them is exact.
 */
inline bool
onFixedGrid(double v)
{
    if (std::signbit(v) || !(v < 0x1p35))
        return false;
    const double s = v * 0x1p16;
    return s == static_cast<double>(static_cast<std::int64_t>(s));
}

/**
 * The binade of a finite x >= 0: its ulp u and x / u. Zero, the
 * subnormals and [2^-1022, 2^-1021) share u = 2^-1074, so they count
 * as one binade; every multiple of u in [0, 2^53 u] is a double.
 */
struct Binade
{
    double ulp;
    double perUlp;     ///< 1 / ulp, or 0 where that overflows
    std::int64_t ulps; ///< x / ulp, below kBinadeUlps
};

inline Binade
binadeOf(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const int field = std::max(static_cast<int>(bits >> 52), 1);
    const auto mantissa =
        static_cast<std::int64_t>(bits & ((std::uint64_t{1} << 52) - 1));
    // ulp = 2^(field - 1075); built from its exponent bits when normal.
    const auto pow2 = [](int e) {
        return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023)
                                     << 52);
    };
    return Binade{field > 52 ? pow2(field - 1075)
                             : std::ldexp(1.0, field - 1075),
                  field >= 52 ? pow2(1075 - field) : 0.0,
                  (bits >> 52) == 0 ? mantissa : mantissa + kBinadeUlps / 2};
}

/**
 * c >= 0 rounded to the nearest multiple of the binade's ulp, counted
 * in ulps; @p tie is set when c lies exactly halfway. c / ulp and its
 * fractional part are exact (power-of-two scaling of a value below
 * 2^53); a quotient small enough to lose bits is far below one half
 * and rounds to zero either way. A c that reaches past the binade
 * gives kBinadeUlps, which leaves no room for a jump.
 */
inline std::int64_t
roundToUlps(double c, const Binade &b, bool &tie)
{
    tie = false;
    if (!(c < b.ulp * 0x1p53))
        return kBinadeUlps;
    const double q = b.perUlp > 0.0 ? c * b.perUlp : c / b.ulp;
    const auto whole = static_cast<std::int64_t>(q);
    const double frac = q - static_cast<double>(whole);
    tie = frac == 0.5;
    return whole + (frac > 0.5 ? 1 : 0);
}

} // namespace

// Inside x's binade [2^e, 2^(e+1)) with ulp u, fl(x + c) = x + RN_u(c)
// (c rounded to the nearest multiple of u) whenever the sum stays at
// or below 2^(e+1) - u and c is not a tie (c mod u != u/2), so a run
// that stays inside advances in one exact jump. A tie from an even
// multiple of u rounds to the even neighbour and keeps x even, so it
// moves by a fixed even number of ulps as well. A tie from an odd
// multiple, a binade crossing, or a negative or non-finite value
// takes one literal add. DESIGN.md §15 gives the full argument.
double
repeatAdd(double x, double c, std::int64_t n)
{
    if (n <= 0)
        return x;
    if (onFixedGrid(x) && onFixedGrid(c) &&
        static_cast<double>(n) * c < 0x1p35)
        return x + static_cast<double>(n) * c;
    while (n > 0) {
        if (nonNegativeFinite(x) && nonNegativeFinite(c)) {
            const Binade b = binadeOf(x);
            bool tie = false;
            std::int64_t r = roundToUlps(c, b, tie);
            if (!tie || b.ulps % 2 == 0) {
                r += tie ? r % 2 : 0;
                if (r == 0)
                    return x;
                const std::int64_t j =
                    std::min(n, (kBinadeUlps - 1 - b.ulps) / r);
                if (j > 0) {
                    x += static_cast<double>(j) *
                         (static_cast<double>(r) * b.ulp);
                    n -= j;
                    if (n == 0)
                        return x;
                }
                // No room is left: the next add leaves the binade.
            }
        }
        const double y = x + c;
        --n;
        if (std::bit_cast<std::uint64_t>(y) ==
            std::bit_cast<std::uint64_t>(x))
            return y;
        x = y;
    }
    return x;
}

// Whole periods that stay inside x's binade advance in one exact jump
// of (k - 1) RN_u(a) + RN_u(b) ulps; a period that crosses a binade or
// meets a tie runs through repeatAdd and one literal add.
double
periodicAdd(double x, double a, double b, std::int64_t k, std::int64_t T)
{
    assert(k >= 1);
    if (T <= 0)
        return x;
    std::int64_t periods = T / k;
    const std::int64_t tail = T % k;
    if (onFixedGrid(x) && onFixedGrid(a) && onFixedGrid(b) &&
        static_cast<double>(T - periods) * a +
                static_cast<double>(periods) * b <
            0x1p35)
        return x + static_cast<double>(T - periods) * a +
               static_cast<double>(periods) * b;
    while (periods > 0) {
        if (nonNegativeFinite(x) && nonNegativeFinite(a) &&
            nonNegativeFinite(b)) {
            const Binade bin = binadeOf(x);
            bool tie_a = false;
            bool tie_b = false;
            const std::int64_t ra = roundToUlps(a, bin, tie_a);
            const std::int64_t rb = roundToUlps(b, bin, tie_b);
            // (k - 1) ra + rb, unless it leaves the binade anyway.
            if (!tie_a && !tie_b &&
                (ra == 0 || k - 1 <= (kBinadeUlps - rb) / ra)) {
                const std::int64_t period = (k - 1) * ra + rb;
                if (period == 0)
                    return x; // every add, the tail's too, rounds away
                const std::int64_t j =
                    std::min(periods, (kBinadeUlps - 1 - bin.ulps) / period);
                if (j > 0) {
                    x += static_cast<double>(j) *
                         (static_cast<double>(period) * bin.ulp);
                    periods -= j;
                    if (periods == 0)
                        break;
                }
                // No room is left: the next period leaves the binade.
            }
        }
        const double before = x;
        x = repeatAdd(x, a, k - 1) + b;
        --periods;
        // The period map is a function of x: a fixed point stays one.
        if (std::bit_cast<std::uint64_t>(x) ==
            std::bit_cast<std::uint64_t>(before))
            break;
    }
    return repeatAdd(x, a, tail);
}

} // namespace unico::common
