/**
 * @file
 * Deterministic, seeded fault-injection harness.
 *
 * A FaultPlan decides, for the i-th evaluation of a given evaluation
 * stream, whether that evaluation fails and how: a *transient* crash,
 * a *hang* (killed by the supervisor at its virtual-time deadline) or
 * a silently *corrupted* PPA result. Decisions are a pure function of
 * (plan seed, stream key, evaluation index), so an injected fault
 * pattern is bit-for-bit reproducible regardless of thread schedule
 * or retry interleaving — which is what makes every recovery path in
 * the driver testable and benchable.
 */

#ifndef UNICO_COMMON_FAULT_HH
#define UNICO_COMMON_FAULT_HH

#include <cstdint>
#include <string>

namespace unico::common {

/** What the injector does to one evaluation. */
enum class FaultKind {
    None,      ///< evaluation proceeds normally
    Transient, ///< evaluation crashes; no result, retryable
    Hang,      ///< evaluation never returns; supervisor timeout fires
    Corrupt,   ///< evaluation "succeeds" but the PPA is garbage
};

/** Human-readable fault-kind name. */
const char *toString(FaultKind kind);

/** Injection rates and supervisor-visible constants of a FaultPlan. */
struct FaultSpec
{
    double transientRate = 0.0; ///< P(transient crash) per evaluation
    double hangRate = 0.0;      ///< P(hang) per evaluation
    double corruptRate = 0.0;   ///< P(corrupted PPA) per evaluation
    /** Virtual seconds a hung evaluation costs: the per-evaluation
     *  deadline a real supervisor would wait out, charged to the
     *  EvalClock when the injected hang reports Timeout. */
    double deadlineSeconds = 300.0;
    std::uint64_t seed = 0;     ///< fault-pattern seed

    /** True if any injection rate is non-zero. */
    bool
    active() const
    {
        return transientRate > 0.0 || hangRate > 0.0 ||
               corruptRate > 0.0;
    }
};

/**
 * Stateless fault oracle: decide(streamKey, evalIndex) maps every
 * (stream, index) pair to a FaultKind by hashing it together with
 * the plan seed. Rates are interpreted as independent per-evaluation
 * probabilities, with precedence hang > transient > corrupt when the
 * draw falls into an overlapping band (rates are summed, capped at
 * ~1).
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(FaultSpec spec) : spec_(spec) {}

    const FaultSpec &spec() const { return spec_; }

    /** True if this plan can ever inject a fault. */
    bool active() const { return spec_.active(); }

    /**
     * The fault (or not) injected into evaluation @p eval_index of
     * stream @p stream_key. Pure function: identical arguments always
     * give the identical decision.
     */
    FaultKind decide(std::uint64_t stream_key,
                     std::uint64_t eval_index) const;

    /** One-line human-readable description of the spec. */
    std::string describe() const;

  private:
    FaultSpec spec_;
};

} // namespace unico::common

#endif // UNICO_COMMON_FAULT_HH
