#include "core/backend.hh"

#include "core/ascend_env.hh"
#include "core/spatial_env.hh"

namespace unico::core {

namespace {

template <typename Env>
std::unique_ptr<CoSearchEnv>
makeEnv(std::vector<workload::Network> networks,
        const BackendOptions &opt)
{
    return std::make_unique<Env>(std::move(networks), opt);
}

struct Backend
{
    const char *name;
    std::unique_ptr<CoSearchEnv> (*make)(std::vector<workload::Network>,
                                         const BackendOptions &);
};

/** The backends, sorted by name. */
constexpr Backend kBackends[] = {{"ascend", makeEnv<AscendEnv>},
                                 {"spatial", makeEnv<SpatialEnv>}};

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
