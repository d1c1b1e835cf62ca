/**
 * @file
 * Power-performance-area (PPA) result type shared by every
 * estimation engine (analytical cost model and cycle-level
 * simulator) and by the co-optimization objectives.
 */

#ifndef UNICO_ACCEL_PPA_HH
#define UNICO_ACCEL_PPA_HH

#include <cmath>
#include <limits>

#include "common/shard_cache.hh"

namespace unico::accel {

/**
 * A single PPA estimate. Units follow the paper's tables:
 * latency in milliseconds, power in milliwatts, area in mm^2.
 */
struct Ppa
{
    double latencyMs = 0.0;
    double powerMw = 0.0;
    double areaMm2 = 0.0;
    double energyMj = 0.0;  ///< derived: latency * power (micro-joule)
    bool feasible = false;  ///< false when buffers/constraints violated

    /** Energy-delay product (mJ * ms), a common mapping loss. */
    double
    edp() const
    {
        return energyMj * latencyMs;
    }

    /** Infeasible sentinel with very large objective values. */
    static Ppa
    infeasible()
    {
        Ppa p;
        p.latencyMs = 1e12;
        p.powerMw = 1e9;
        p.areaMm2 = 1e6;
        p.energyMj = 1e15;
        p.feasible = false;
        return p;
    }

    /** True if every field is finite and non-negative. */
    bool
    valid() const
    {
        return std::isfinite(latencyMs) && std::isfinite(powerMw) &&
               std::isfinite(areaMm2) && latencyMs >= 0.0 &&
               powerMw >= 0.0 && areaMm2 >= 0.0;
    }
};

/**
 * One memoized PPA evaluation. @c seconds is the nominal virtual
 * cost of the original computation; a cache hit re-charges it to the
 * EvalClock so the cost ledger is identical with the cache on or
 * off. @c loss carries the mapping-search objective for evaluator
 * decorators that cache (ppa, loss) pairs.
 */
struct CachedEval
{
    Ppa ppa;
    double loss = 0.0;
    double seconds = 0.0;
};

/**
 * The shared evaluation cache of the cycle-level (ascend) backend,
 * keyed by canonical fingerprints of (model tech, hardware config,
 * operator, mapping). One instance is shared by every model query of
 * a run.
 */
using EvalCache = common::ShardedLruCache<CachedEval>;

/**
 * Canonical evaluation-cache key: a prepared query-context prefix
 * (model kind + tech + op + hw) combined with one mapping
 * fingerprint. Every producer must build keys through this single
 * helper so entries written by one path are hits for every other.
 */
inline common::Fingerprint
evalCacheKey(const common::Fingerprint &context,
             const common::Fingerprint &mapping_fp)
{
    return common::combine(context, mapping_fp);
}

} // namespace unico::accel

#endif // UNICO_ACCEL_PPA_HH
