#include "core/backend.hh"

#include "core/ascend_env.hh"
#include "core/spatial_env.hh"

namespace unico::core {

namespace {

std::unique_ptr<CoSearchEnv>
makeSpatial(std::vector<workload::Network> networks,
            const BackendOptions &opt)
{
    SpatialEnvOptions env_opt;
    env_opt.scenario = opt.scenario;
    env_opt.engine = opt.engine;
    env_opt.maxShapesPerNetwork = opt.maxShapesPerNetwork;
    env_opt.surrogate = opt.surrogate;
    env_opt.cancel = opt.cancel;
    return std::make_unique<SpatialEnv>(std::move(networks), env_opt);
}

std::unique_ptr<CoSearchEnv>
makeAscend(std::vector<workload::Network> networks,
           const BackendOptions &opt)
{
    AscendEnvOptions env_opt;
    env_opt.areaBudgetMm2 = opt.areaBudgetMm2;
    env_opt.maxShapesPerNetwork = opt.maxShapesPerNetwork;
    env_opt.cache = opt.cache;
    env_opt.surrogate = opt.surrogate;
    env_opt.cancel = opt.cancel;
    return std::make_unique<AscendEnv>(std::move(networks), env_opt);
}

struct Backend
{
    const char *name;
    std::unique_ptr<CoSearchEnv> (*make)(std::vector<workload::Network>,
                                         const BackendOptions &);
};

/** The backends, sorted by name. */
constexpr Backend kBackends[] = {{"ascend", makeAscend},
                                 {"spatial", makeSpatial}};

const Backend &
lookup(const std::string &name)
{
    std::string known;
    for (const Backend &backend : kBackends) {
        if (name == backend.name)
            return backend;
        known += std::string(" ") + backend.name;
    }
    throw BackendError("unknown backend '" + name + "' (known:" + known +
                       ")");
}

} // namespace

std::vector<std::string>
backendNames()
{
    std::vector<std::string> names;
    for (const Backend &backend : kBackends)
        names.push_back(backend.name);
    return names;
}

void
requireBackend(const std::string &name)
{
    lookup(name);
}

std::unique_ptr<CoSearchEnv>
makeBackendEnv(const std::string &name,
               std::vector<workload::Network> networks,
               const BackendOptions &opt)
{
    return lookup(name).make(std::move(networks), opt);
}

} // namespace unico::core
