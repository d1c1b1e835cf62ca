#include "core/backend.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>

#include "core/ascend_env.hh"
#include "core/spatial_env.hh"

namespace unico::core {

namespace {

std::size_t
parseMaxShapes(const common::CliArgs &args)
{
    const std::int64_t v = args.getInt("max-shapes", 5);
    if (v <= 0)
        throw BackendError("--max-shapes must be positive");
    return static_cast<std::size_t>(v);
}

/** Reject a flag the chosen backend would silently ignore. */
void
rejectForeignFlag(const common::CliArgs &args, const char *flag,
                  const char *backend)
{
    if (args.has(flag))
        throw BackendError(std::string("backend '") + backend +
                           "' does not support --" + flag);
}

BackendOptions
parseSpatialOptions(const common::CliArgs &args)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = parseMaxShapes(args);
    const std::string scenario = args.getString("scenario", "edge");
    if (scenario == "edge")
        opt.scenario = accel::Scenario::Edge;
    else if (scenario == "cloud")
        opt.scenario = accel::Scenario::Cloud;
    else
        throw BackendError("unknown scenario '" + scenario +
                           "' (expected edge|cloud)");
    const std::string engine = args.getString("engine", "annealing");
    if (engine == "random")
        opt.engine = mapping::EngineKind::Random;
    else if (engine == "annealing")
        opt.engine = mapping::EngineKind::Annealing;
    else if (engine == "genetic")
        opt.engine = mapping::EngineKind::Genetic;
    else
        throw BackendError("unknown engine '" + engine +
                           "' (expected random|annealing|genetic)");
    rejectForeignFlag(args, "area-budget", "spatial");
    return opt;
}

BackendOptions
parseAscendOptions(const common::CliArgs &args)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = parseMaxShapes(args);
    opt.areaBudgetMm2 = args.getDouble("area-budget", 200.0);
    if (!(opt.areaBudgetMm2 > 0.0))
        throw BackendError("--area-budget must be positive");
    rejectForeignFlag(args, "scenario", "ascend");
    rejectForeignFlag(args, "engine", "ascend");
    return opt;
}

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

std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

/**
 * The registry itself. Built-ins are installed by the initializer of
 * the function-local static, so every entry point (lookup, listing,
 * registration) sees them without a separate init call and without
 * static-initialization-order hazards.
 */
std::map<std::string, BackendInfo> &
registry()
{
    static std::map<std::string, BackendInfo> reg = [] {
        std::map<std::string, BackendInfo> r;
        r.emplace("spatial",
                  BackendInfo{"spatial template + analytical "
                              "(MAESTRO-style) cost model",
                              makeSpatial, parseSpatialOptions});
        r.emplace("ascend",
                  BackendInfo{"Ascend-like cube core + cycle-level "
                              "simulator",
                              makeAscend, parseAscendOptions});
        return r;
    }();
    return reg;
}

} // namespace

void
registerBackend(const std::string &name, BackendInfo info)
{
    if (name.empty())
        throw BackendError("backend name must be non-empty");
    if (!info.factory)
        throw BackendError("backend '" + name + "' needs a factory");
    std::lock_guard<std::mutex> lock(registryMutex());
    registry()[name] = std::move(info);
}

bool
isBackendRegistered(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    return registry().count(name) > 0;
}

std::vector<std::string>
backendNames()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &[name, info] : registry())
        names.push_back(name);
    return names;
}

const BackendInfo &
backendInfo(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    const auto it = registry().find(name);
    if (it == registry().end()) {
        std::ostringstream oss;
        oss << "unknown backend '" << name << "' (registered:";
        for (const auto &[known, info] : registry())
            oss << " " << known;
        oss << ")";
        throw BackendError(oss.str());
    }
    return it->second;
}

std::unique_ptr<CoSearchEnv>
makeBackendEnv(const std::string &name,
               std::vector<workload::Network> networks,
               const BackendOptions &opt)
{
    return backendInfo(name).factory(std::move(networks), opt);
}

BackendOptions
parseBackendOptions(const std::string &name, const common::CliArgs &args)
{
    const BackendInfo &info = backendInfo(name);
    if (!info.parseOptions) {
        BackendOptions opt;
        opt.maxShapesPerNetwork = parseMaxShapes(args);
        return opt;
    }
    return info.parseOptions(args);
}

} // namespace unico::core
