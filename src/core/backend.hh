/**
 * @file
 * The backends: one place where evaluation stacks (platform binding =
 * HW design space + mapping search + PPA engine) are named and
 * constructed.
 *
 * The CLI, the job server, every bench binary and the tests select
 * their platform by name ("spatial", "ascend") through
 * makeBackendEnv(). Adding a backend is a row in backend.cc's table
 * plus its env class; the JobSpec fields it reads are mapped onto
 * BackendOptions by core::backendOptions() (core/run_spec.hh).
 */

#ifndef UNICO_CORE_BACKEND_HH
#define UNICO_CORE_BACKEND_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/ppa.hh"
#include "accel/spatial.hh"
#include "core/env.hh"
#include "mapping/engine.hh"
#include "workload/network.hh"

namespace unico::core {

/** Typed failure of backend lookup or option mapping. */
class BackendError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Construction options of every backend env (SpatialEnv, AscendEnv
 * and the ones to come). Each backend reads the fields it
 * understands and ignores the rest; core::backendOptions() rejects a
 * JobSpec field foreign to the chosen backend.
 */
struct BackendOptions
{
    /** Power scenario (spatial backend). */
    accel::Scenario scenario = accel::Scenario::Edge;
    /** Mapping-search engine family (spatial backend). */
    mapping::EngineKind engine = mapping::EngineKind::Annealing;
    /** Chip area envelope in mm^2 (ascend backend): the edge-device
     *  constraint of Sec. 4.6. */
    double areaBudgetMm2 = 200.0;
    /** Dominant unique layer shapes kept per network (bounds the
     *  per-HW mapping-search work; layers are count-weighted so the
     *  latency profile is preserved). */
    std::size_t maxShapesPerNetwork = 5;
    /** Shared evaluation cache (ascend backend; owned by the caller);
     *  nullptr disables memoization. Results are bit-identical with
     *  or without it. The spatial backend queries its analytical
     *  model directly and ignores it. */
    accel::EvalCache *cache = nullptr;
    /** Learned surrogate screening context (owned by the caller);
     *  nullptr or a disabled context keeps the exact-only path
     *  byte-identical to builds without the surrogate. */
    surrogate::SurrogateContext *surrogate = nullptr;
};

/** The backend names, sorted. */
std::vector<std::string> backendNames();

/** Throws BackendError, listing the known names, unless @p name is a
 *  backend. */
void requireBackend(const std::string &name);

/** Construct backend @p name over @p networks. */
std::unique_ptr<CoSearchEnv>
makeBackendEnv(const std::string &name,
               std::vector<workload::Network> networks,
               const BackendOptions &opt);

} // namespace unico::core

#endif // UNICO_CORE_BACKEND_HH
