/**
 * @file
 * NSGA-II co-search baseline (Deb et al., 2002) as used in the
 * paper's Tables 1-2 and Fig. 7: a multi-objective genetic algorithm
 * directly over hardware configurations, with a fixed full SW
 * mapping-search budget per individual.
 */

#ifndef UNICO_BASELINES_NSGA2_HH
#define UNICO_BASELINES_NSGA2_HH

#include <cstdint>
#include <string>

#include "core/driver.hh"
#include "core/env.hh"

namespace unico::baselines {

/** NSGA-II configuration. */
struct Nsga2Config
{
    std::string name = "NSGAII";
    int population = 20;     ///< mu (and lambda) population size
    int generations = 10;    ///< evolution steps after the init gen
    int swBudget = 300;      ///< SW search budget per individual
    std::size_t workers = 8; ///< virtual worker pool for the clock
    std::uint64_t seed = 1;
};

/** Run NSGA-II co-search on @p env; result format matches the
 *  CoOptimizer driver so benches can compare traces directly. */
core::CoSearchResult runNsga2(core::CoSearchEnv &env,
                              const Nsga2Config &cfg);

} // namespace unico::baselines

#endif // UNICO_BASELINES_NSGA2_HH
