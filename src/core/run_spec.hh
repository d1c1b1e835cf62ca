/**
 * @file
 * One run description for every entry point.
 *
 * A JobSpec is one complete co-search run: workloads, backend and its
 * options, algorithm, search sizes, checkpointing, fault injection and
 * surrogate screening. co_search_cli parses argv into a JobSpec and
 * POST /jobs parses a JSON body into one, both through the same
 * per-field table; validateSpec() is the only check either makes;
 * RunStack builds the evaluation stack a spec describes and runSpec()
 * runs it. A spec therefore writes the same bytes from either entry
 * point, and a new backend needs no entry-point code of its own.
 */

#ifndef UNICO_CORE_RUN_SPEC_HH
#define UNICO_CORE_RUN_SPEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "common/json.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "core/fault_env.hh"
#include "core/job_context.hh"
#include "core/progress.hh"
#include "surrogate/learned_model.hh"

namespace unico::common {
class CliArgs;
} // namespace unico::common

namespace unico::core {

/**
 * Declarative description of one co-search run. Each field has one
 * JSON key (the snake_case of its name) and, except name and resume,
 * the co_search_cli flag that is the key with '_' -> '-'. Empty and
 * unset backend fields take the backend's default.
 */
struct JobSpec
{
    std::string name;                   ///< display label (JSON only)
    std::vector<std::string> models;    ///< zoo model names
    std::vector<std::string> workloads; ///< workload file paths
    std::string backend = "spatial";
    std::string scenario; ///< spatial: edge|cloud
    std::string engine;   ///< spatial: random|annealing|genetic
    std::optional<double> areaBudgetMm2;   ///< ascend: chip area, mm^2
    std::optional<std::int64_t> maxShapes; ///< shapes kept per network
    std::string algo = "unico"; ///< unico|hasco|mobohb|sh|msh|nsga2
    int batch = 20;
    int iters = 8;
    int bmax = 200;
    std::uint64_t seed = 1;
    std::size_t threads = 1; ///< round-dispatch threads
    std::string checkpoint;  ///< checkpoint path (empty = disabled)
    bool resume = false;
    int checkpointEvery = 1;
    int checkpointKeep = 3;
    std::string csvPrefix; ///< CSV export prefix (empty = disabled)
    double faultRate = 0.0;
    double hangRate = 0.0;
    double corruptRate = 0.0;
    std::uint64_t faultSeed = 7;
    /** > 0 enables learned surrogate screening with this keep
     *  fraction (byte-neutral by contract); 0 = off. */
    double surrogateKeep = 0.0;
};

/** Parse a JSON job document ("model"/"workload" are aliases of the
 *  list fields); throws std::runtime_error naming the field. */
JobSpec jobSpecFromJson(const common::Json &doc);

/**
 * Parse co_search_cli's argv through the same field table. A flag's
 * text is the field's value as is for string fields and through
 * common::Json::parse for all others, so both vocabularies share one
 * number grammar and one range check; a repeated --model/--workload
 * keeps every value. Shorthands: a positional argument is a workload
 * file when it contains a '.' and a model otherwise; --surrogate sets
 * surrogate_keep to 0.25 and --no-surrogate to 0; --resume sets
 * resume. Flags outside the table are left to the caller.
 */
JobSpec jobSpecFromArgs(const common::CliArgs &args);

/** The fields @p spec sets away from their defaults, as the JSON
 *  document jobSpecFromJson() reads back into @p spec. */
common::Json toJson(const JobSpec &spec);

/** The first reason @p spec cannot run, or empty. Workload files are
 *  read only when the run starts. */
std::string validateSpec(const JobSpec &spec);

/** The BackendOptions of the spec's backend fields; throws
 *  BackendError on an unknown backend, a bad value, or a field the
 *  backend does not use. */
BackendOptions backendOptions(const JobSpec &spec);

/**
 * The evaluation stack a valid spec describes, built in place:
 * networks -> backend env (with its surrogate screen) -> fault
 * injector. Throws when a workload file cannot be read.
 */
struct RunStack
{
    /** @param cache evaluation cache for the backends that memoize;
     *  may be null and must outlive the stack. */
    RunStack(const JobSpec &spec, accel::EvalCache *cache);
    RunStack(const RunStack &) = delete; // the env points at screen

    /** The env a search runs on: the fault injector when one is set. */
    CoSearchEnv &
    env() const
    {
        return faulty ? static_cast<CoSearchEnv &>(*faulty) : *backend;
    }

    std::vector<std::string> networkNames; ///< in search order
    surrogate::SurrogateContext screen;
    std::unique_ptr<CoSearchEnv> backend;
    std::unique_ptr<FaultyEnv> faulty; ///< null without a fault rate
};

/** What a run takes beyond its spec; every member is optional and
 *  only the stepped driver uses them. */
struct RunControl
{
    JobContext *ctx = nullptr; ///< see CoSearch
    /** Receives the driver's progress events, on its thread. */
    std::function<void(const ProgressEvent &)> onProgress;
    /** Called before every trial; may block (a pause gate). */
    std::function<void()> beforeTrial;
    const common::CancelToken *cancel = nullptr; ///< DriverConfig::cancel
    double wallDeadlineSeconds = 0.0;            ///< see DriverConfig
    double evalWallDeadlineSeconds = 0.0;        ///< see DriverConfig
};

/**
 * Run a valid spec's search on @p env (its RunStack's env, or a fleet
 * over it): the stepped CoSearch, or NSGA-II. Then write the
 * records/front/trace/faults CSVs when csv_prefix is set. Throws what
 * the driver throws (e.g. CheckpointMismatchError), and
 * std::runtime_error when a CSV cannot be written.
 */
CoSearchResult runSpec(const JobSpec &spec, CoSearchEnv &env,
                       const RunControl &control = {});

} // namespace unico::core

#endif // UNICO_CORE_RUN_SPEC_HH
