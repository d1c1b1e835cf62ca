/**
 * @file
 * Shared plumbing for the per-table / per-figure bench binaries:
 * CLI conventions (--seed, --scale, --out), algorithm registry,
 * hypervolume trace post-processing and table helpers.
 *
 * Every binary regenerates one table or figure of the paper; scaled
 * defaults keep the full suite runnable in minutes on one core while
 * preserving the qualitative ordering the paper reports.
 */

#ifndef UNICO_BENCH_BENCH_COMMON_HH
#define UNICO_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/nsga2.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "moo/hypervolume.hh"
#include "moo/scalarize.hh"
#include "workload/model_zoo.hh"

namespace unico::bench {

/** Common bench options parsed from the command line. */
struct BenchOptions
{
    std::uint64_t seed = 1;
    double scale = 1.0;      ///< shrinks batch sizes / budgets
    std::string outCsv;      ///< optional CSV dump path
    /** Evaluation stack the bench runs against (--backend). */
    std::string backend = "spatial";
    /** Surrogate screening (--surrogate / --surrogate-keep /
     *  --no-surrogate), mirroring the CLI flag semantics. */
    bool surrogate = false;
    double surrogateKeep = 0.25;

    static BenchOptions
    parse(const common::CliArgs &args)
    {
        BenchOptions opt;
        opt.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
        opt.scale = args.getDouble("scale", 1.0);
        opt.outCsv = args.getString("out", "");
        opt.backend = args.getString("backend", "spatial");
        opt.surrogate =
            (args.has("surrogate") || args.has("surrogate-keep")) &&
            !args.has("no-surrogate");
        opt.surrogateKeep =
            args.getDouble("surrogate-keep", opt.surrogateKeep);
        return opt;
    }

    /** Configure a caller-owned surrogate context from the flags
     *  (the context is non-copyable: it holds the atomic sink). */
    void
    applySurrogate(surrogate::SurrogateContext &ctx) const
    {
        ctx.options.enabled = surrogate;
        ctx.options.keep = surrogateKeep;
    }

    /** Scale an integer parameter, keeping a floor. */
    int
    scaled(int value, int floor_value) const
    {
        return std::max(static_cast<int>(std::lround(value * scale)),
                        floor_value);
    }
};

/** Driver configuration sized for the open-source platform benches. */
inline core::DriverConfig
benchDriverConfig(core::DriverConfig cfg, const BenchOptions &opt)
{
    // HASCO-style full-budget BO samples small sequential batches (it
    // cannot early-stop, so each sample is expensive); the batched SH
    // methods sample wide and run more MOBO trials for less cost.
    if (cfg.budgetMode == core::BudgetMode::FullBudget) {
        cfg.batchSize = opt.scaled(6, 2);
        cfg.maxIter = opt.scaled(14, 4);
    } else {
        cfg.batchSize = opt.scaled(24, 6);
        cfg.maxIter = opt.scaled(10, 3);
    }
    cfg.sh.bMax = opt.scaled(240, 32);
    cfg.minBudgetPerRound = 8;
    cfg.workers = 8;
    cfg.seed = opt.seed;
    return cfg;
}

/** NSGA-II configuration matched in total evaluation budget. */
inline baselines::Nsga2Config
benchNsga2Config(const BenchOptions &opt)
{
    baselines::Nsga2Config cfg;
    cfg.population = opt.scaled(18, 6);
    cfg.generations = opt.scaled(7, 2);
    cfg.swBudget = opt.scaled(240, 32);
    cfg.workers = 8;
    cfg.seed = opt.seed;
    return cfg;
}

/**
 * Build an environment for zoo networks through the backend
 * registry. The scenario applies to scenario-aware backends
 * (spatial); area-capped backends (ascend) use their default
 * envelope.
 */
inline std::unique_ptr<core::CoSearchEnv>
makeBenchEnv(const std::string &backend,
             const std::vector<std::string> &nets,
             accel::Scenario scenario, std::size_t max_shapes = 5,
             surrogate::SurrogateContext *surrogate = nullptr)
{
    std::vector<workload::Network> networks;
    networks.reserve(nets.size());
    for (const auto &name : nets)
        networks.push_back(workload::makeNetwork(name));
    core::BackendOptions env_opt;
    env_opt.scenario = scenario;
    env_opt.maxShapesPerNetwork = max_shapes;
    env_opt.surrogate = surrogate;
    return core::makeBackendEnv(backend, std::move(networks), env_opt);
}

/** makeBenchEnv() under the bench's --backend selection. */
inline std::unique_ptr<core::CoSearchEnv>
makeBenchEnv(const BenchOptions &opt, const std::vector<std::string> &nets,
             accel::Scenario scenario, std::size_t max_shapes = 5,
             surrogate::SurrogateContext *surrogate = nullptr)
{
    return makeBenchEnv(opt.backend, nets, scenario, max_shapes,
                        surrogate);
}

/**
 * Hypervolume-difference series of a search trace under shared
 * normalization bounds (so different algorithms are comparable).
 * Objectives are min-max normalized to [0,1]^3 with ref (1,...,1)
 * slightly padded and ideal 0.
 */
inline std::vector<std::pair<double, double>>
hvDifferenceSeries(const std::vector<core::TracePoint> &trace,
                   const moo::Objectives &ideal,
                   const moo::Objectives &nadir)
{
    std::vector<std::pair<double, double>> out;
    const moo::Objectives ref(ideal.size(), 1.1);
    const moo::Objectives zero(ideal.size(), 0.0);
    for (const auto &tp : trace) {
        std::vector<moo::Objectives> pts;
        pts.reserve(tp.front.size());
        for (const auto &y : tp.front)
            pts.push_back(moo::normalizeObjectives(y, ideal, nadir));
        out.emplace_back(
            tp.hours, moo::hypervolumeDifference(pts, ref, zero));
    }
    return out;
}

/** Union ideal/nadir across several results' trace fronts. */
inline void
unionBounds(const std::vector<const core::CoSearchResult *> &results,
            moo::Objectives &ideal, moo::Objectives &nadir)
{
    std::vector<moo::Objectives> all;
    for (const auto *res : results)
        for (const auto &tp : res->trace)
            for (const auto &y : tp.front)
                all.push_back(y);
    if (all.empty()) {
        ideal = {0, 0, 0};
        nadir = {1, 1, 1};
        return;
    }
    ideal = moo::idealPoint(all);
    nadir = moo::nadirPoint(all);
}

/** Print a table and optionally dump it as CSV. */
inline void
emitTable(const common::TableWriter &table, const BenchOptions &opt)
{
    table.print(std::cout);
    if (!opt.outCsv.empty()) {
        if (table.writeCsv(opt.outCsv))
            std::cout << "csv written to " << opt.outCsv << "\n";
        else
            std::cout << "failed to write " << opt.outCsv << "\n";
    }
}

/** Min-distance record helper: returns (L, P, A, hours). */
struct MinDistSummary
{
    double latencyMs = 0.0;
    double powerMw = 0.0;
    double areaMm2 = 0.0;
    double hours = 0.0;
    bool valid = false;
};

inline MinDistSummary
summarize(const core::CoSearchResult &result)
{
    MinDistSummary s;
    s.hours = result.totalHours;
    if (result.front.empty())
        return s;
    const auto &rec = result.records[result.minDistanceRecord()];
    s.latencyMs = rec.ppa.latencyMs;
    s.powerMw = rec.ppa.powerMw;
    s.areaMm2 = rec.ppa.areaMm2;
    s.valid = true;
    return s;
}

} // namespace unico::bench

#endif // UNICO_BENCH_BENCH_COMMON_HH
