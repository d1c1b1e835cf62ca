/**
 * @file
 * Identity of an evaluation stack: the (backend, scenario, workload
 * digest) triple stamped into checkpoints and presented by a fleet
 * worker in its TCP handshake. Both compare it by one rule: a field
 * that is empty on either side is unknown rather than different.
 */

#ifndef UNICO_COMMON_STACK_IDENTITY_HH
#define UNICO_COMMON_STACK_IDENTITY_HH

#include <cstdint>
#include <string>

#include "common/json.hh"

namespace unico::common {

/** Identity triple of an evaluation stack, in its stamped string form. */
struct StackIdentity
{
    std::string backend;
    std::string scenario;
    std::string workloadDigest; ///< hex; empty when unknown

    /** A field of the triple; None when no field mismatches. */
    enum class Field { None, Backend, Scenario, Workload };

    /** Snapshot of an environment's backendName(), scenarioName() and
     *  workloadDigest() (0 = unknown). */
    template <typename Env>
    static StackIdentity
    of(const Env &env)
    {
        const std::uint64_t digest = env.workloadDigest();
        return {env.backendName(), env.scenarioName(),
                digest != 0 ? hexU64(digest) : std::string()};
    }

    /** The first field both identities know and disagree on. */
    Field
    mismatch(const StackIdentity &other) const
    {
        const auto differ = [](const std::string &a, const std::string &b) {
            return !a.empty() && !b.empty() && a != b;
        };
        if (differ(backend, other.backend))
            return Field::Backend;
        if (differ(scenario, other.scenario))
            return Field::Scenario;
        if (differ(workloadDigest, other.workloadDigest))
            return Field::Workload;
        return Field::None;
    }
};

} // namespace unico::common

#endif // UNICO_COMMON_STACK_IDENTITY_HH
