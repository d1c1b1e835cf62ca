#include "core/run_spec.hh"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "baselines/nsga2.hh"
#include "common/cli.hh"
#include "common/fault.hh"
#include "core/report.hh"
#include "workload/model_zoo.hh"
#include "workload/parser.hh"

namespace unico::core {

namespace {

/** The integer @p value as a @p T; throws when it does not fit, or
 *  when its magnitude reaches 2^53, where the double a JSON number
 *  parses to may be a rounded neighbour of the text. */
template <typename T>
T
integer(const common::Json &value)
{
    constexpr std::int64_t kExact = std::int64_t{1} << 53;
    const std::int64_t v = value.asInt();
    if (v <= -kExact || v >= kExact || !std::in_range<T>(v))
        throw std::runtime_error("integer out of range");
    return static_cast<T>(v);
}

template <typename T>
void
read(T &dst, const common::Json &v)
{
    if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        // A list field appends one string or an array of them.
        if (v.isString()) {
            dst.push_back(v.asString());
            return;
        }
        for (std::size_t i = 0; i < v.size(); ++i)
            dst.push_back(v.at(i).asString());
    } else if constexpr (std::is_same_v<T, std::string>) {
        dst = v.asString();
    } else if constexpr (std::is_same_v<T, bool>) {
        dst = v.asBool();
    } else if constexpr (std::is_floating_point_v<T>) {
        dst = v.asDouble();
    } else if constexpr (std::is_integral_v<T>) {
        dst = integer<T>(v);
    } else {
        read(dst.emplace(), v); // std::optional
    }
}

template <typename T>
common::Json
write(const T &v)
{
    if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        common::Json out = common::Json::array();
        for (const auto &s : v)
            out.push(s);
        return out;
    } else if constexpr (requires { v.value(); }) {
        return write(v.value()); // std::optional
    } else {
        return common::Json(v);
    }
}

const JobSpec kDefaults;

/** One JobSpec field: its JSON key, its CLI flag and its codec. */
struct Field
{
    const char *key;   ///< JSON key
    const char *alias; ///< second JSON key, and the CLI flag's name
    bool cli;          ///< has a flag (name has none; --resume is a
                       ///< shorthand)
    bool text;         ///< a flag's text is the value itself
    void (*read)(JobSpec &, const common::Json &);
    /** The field as JSON; std::nullopt at its default. */
    std::optional<common::Json> (*write)(const JobSpec &);
};

template <auto Member>
Field
field(const char *key, const char *alias = nullptr, bool cli = true)
{
    using T = std::remove_cvref_t<decltype(std::declval<JobSpec &>().*Member)>;
    return Field{
        key, alias, cli,
        std::is_same_v<T, std::string> ||
            std::is_same_v<T, std::vector<std::string>>,
        [](JobSpec &spec, const common::Json &v) { read(spec.*Member, v); },
        [](const JobSpec &spec) -> std::optional<common::Json> {
            if (spec.*Member == kDefaults.*Member)
                return std::nullopt;
            return write(spec.*Member);
        }};
}

const Field kFields[] = {
    field<&JobSpec::name>("name", nullptr, false),
    field<&JobSpec::models>("models", "model"),
    field<&JobSpec::workloads>("workloads", "workload"),
    field<&JobSpec::backend>("backend"),
    field<&JobSpec::scenario>("scenario"),
    field<&JobSpec::engine>("engine"),
    field<&JobSpec::areaBudgetMm2>("area_budget"),
    field<&JobSpec::maxShapes>("max_shapes"),
    field<&JobSpec::algo>("algo"),
    field<&JobSpec::batch>("batch"),
    field<&JobSpec::iters>("iters"),
    field<&JobSpec::bmax>("bmax"),
    field<&JobSpec::seed>("seed"),
    field<&JobSpec::threads>("threads"),
    field<&JobSpec::checkpoint>("checkpoint"),
    field<&JobSpec::resume>("resume", nullptr, false),
    field<&JobSpec::checkpointEvery>("checkpoint_every"),
    field<&JobSpec::checkpointKeep>("checkpoint_keep"),
    field<&JobSpec::csvPrefix>("csv_prefix"),
    field<&JobSpec::faultRate>("fault_rate"),
    field<&JobSpec::hangRate>("hang_rate"),
    field<&JobSpec::corruptRate>("corrupt_rate"),
    field<&JobSpec::faultSeed>("fault_seed"),
    field<&JobSpec::surrogateKeep>("surrogate_keep"),
};

/** Run @p fn, naming the field @p key in what it throws. */
template <typename Fn>
void
forField(const std::string &key, Fn &&fn)
{
    try {
        fn();
    } catch (const std::exception &e) {
        throw std::runtime_error("job-spec field '" + key + "': " +
                                 e.what());
    }
}

} // namespace

JobSpec
jobSpecFromJson(const common::Json &doc)
{
    if (!doc.isObject())
        throw std::runtime_error("job spec must be a JSON object");
    JobSpec spec;
    for (const auto &[key, value] : doc.members()) {
        const Field *f = std::find_if(
            std::begin(kFields), std::end(kFields), [&](const Field &row) {
                return key == row.key || (row.alias && key == row.alias);
            });
        forField(key, [&] {
            if (f == std::end(kFields))
                throw std::runtime_error("unknown field");
            f->read(spec, value);
        });
    }
    return spec;
}

JobSpec
jobSpecFromArgs(const common::CliArgs &args)
{
    JobSpec spec;
    if (args.has("surrogate"))
        spec.surrogateKeep = surrogate::SurrogateOptions{}.keep;
    for (const Field &f : kFields) {
        if (!f.cli)
            continue;
        const std::string key = f.alias != nullptr ? f.alias : f.key;
        std::string flag = key;
        std::replace(flag.begin(), flag.end(), '_', '-');
        for (const std::string &text : args.values(flag))
            forField(key, [&] {
                f.read(spec, f.text ? common::Json(text)
                                    : common::Json::parse(text));
            });
    }
    if (args.has("no-surrogate"))
        spec.surrogateKeep = 0.0;
    spec.resume = args.has("resume");
    for (const std::string &pos : args.positional())
        (pos.find('.') != std::string::npos ? spec.workloads : spec.models)
            .push_back(pos);
    return spec;
}

common::Json
toJson(const JobSpec &spec)
{
    common::Json doc = common::Json::object();
    for (const Field &f : kFields)
        if (std::optional<common::Json> value = f.write(spec))
            doc[f.key] = std::move(*value);
    return doc;
}

std::string
validateSpec(const JobSpec &spec)
{
    if (spec.models.empty() && spec.workloads.empty())
        return "spec needs at least one model or workload";
    try {
        for (const auto &model : spec.models)
            workload::makeNetwork(model);
        backendOptions(spec);
    } catch (const std::exception &e) {
        return e.what();
    }
    if (spec.batch < 1 || spec.iters < 1 || spec.bmax < 1)
        return "batch, iters and bmax must be >= 1";
    if (spec.threads < 1 || spec.threads > 256)
        return "threads must be 1..256";
    if (spec.resume && spec.checkpoint.empty())
        return "resume requires a checkpoint path";
    if (spec.checkpointEvery < 1 || spec.checkpointKeep < 1)
        return "checkpoint_every and checkpoint_keep must be >= 1";
    // Written so that NaN fails too.
    const auto unit = [](double v) { return v >= 0.0 && v <= 1.0; };
    if (!unit(spec.surrogateKeep))
        return "surrogate_keep must be in [0, 1]";
    if (!unit(spec.faultRate) || !unit(spec.hangRate) ||
        !unit(spec.corruptRate))
        return "fault rates must be in [0, 1]";
    if (spec.algo != "nsga2") {
        try {
            driverConfigForAlgo(spec.algo);
        } catch (const std::invalid_argument &) {
            return "unknown algorithm '" + spec.algo +
                   "' (expected unico|hasco|mobohb|sh|msh|nsga2)";
        }
    }
    return {};
}

BackendOptions
backendOptions(const JobSpec &spec)
{
    requireBackend(spec.backend);
    const auto foreign = [&](bool given, const char *key) {
        if (given)
            throw BackendError("backend '" + spec.backend +
                               "' does not support " + key);
    };
    BackendOptions opt;
    if (spec.backend == "spatial") {
        foreign(spec.areaBudgetMm2.has_value(), "area_budget");
        if (spec.scenario == "cloud")
            opt.scenario = accel::Scenario::Cloud;
        else if (!spec.scenario.empty() && spec.scenario != "edge")
            throw BackendError("unknown scenario '" + spec.scenario +
                               "' (expected edge|cloud)");
        if (spec.engine == "random")
            opt.engine = mapping::EngineKind::Random;
        else if (spec.engine == "genetic")
            opt.engine = mapping::EngineKind::Genetic;
        else if (!spec.engine.empty() && spec.engine != "annealing")
            throw BackendError("unknown engine '" + spec.engine +
                               "' (expected random|annealing|genetic)");
    } else { // ascend
        foreign(!spec.scenario.empty(), "scenario");
        foreign(!spec.engine.empty(), "engine");
        opt.areaBudgetMm2 = spec.areaBudgetMm2.value_or(opt.areaBudgetMm2);
        // Written so that NaN fails too.
        if (!(opt.areaBudgetMm2 > 0.0))
            throw BackendError("area_budget must be positive");
    }
    if (spec.maxShapes) {
        if (*spec.maxShapes <= 0)
            throw BackendError("max_shapes must be positive");
        opt.maxShapesPerNetwork = static_cast<std::size_t>(*spec.maxShapes);
    }
    return opt;
}

RunStack::RunStack(const JobSpec &spec, accel::EvalCache *cache)
{
    std::vector<workload::Network> nets;
    for (const auto &model : spec.models)
        nets.push_back(workload::makeNetwork(model));
    for (const auto &file : spec.workloads)
        nets.push_back(workload::parseNetworkFile(file));
    for (const auto &net : nets)
        networkNames.push_back(net.name());

    BackendOptions opt = backendOptions(spec);
    opt.cache = cache;
    if (spec.surrogateKeep > 0.0) {
        screen.options.enabled = true;
        screen.options.keep = spec.surrogateKeep;
        opt.surrogate = &screen;
    }
    backend = makeBackendEnv(spec.backend, std::move(nets), opt);

    common::FaultSpec faults;
    faults.transientRate = spec.faultRate;
    faults.hangRate = spec.hangRate;
    faults.corruptRate = spec.corruptRate;
    faults.seed = spec.faultSeed;
    if (faults.active())
        faulty = std::make_unique<FaultyEnv>(*backend,
                                             common::FaultPlan(faults));
}

CoSearchResult
runSpec(const JobSpec &spec, CoSearchEnv &env, const RunControl &control)
{
    CoSearchResult result;
    if (spec.algo == "nsga2") {
        baselines::Nsga2Config cfg;
        cfg.population = spec.batch;
        cfg.generations = spec.iters;
        cfg.swBudget = spec.bmax;
        cfg.seed = spec.seed;
        result = baselines::runNsga2(env, cfg);
        // The diagnostics CoSearch::result() snapshots itself.
        if (const accel::EvalCache *cache = env.evalCache())
            result.cacheStats = cache->stats();
        result.surrogateStats = env.surrogateStats();
    } else {
        DriverConfig cfg = driverConfigForAlgo(spec.algo);
        cfg.batchSize = spec.batch;
        cfg.maxIter = spec.iters;
        cfg.sh.bMax = spec.bmax;
        cfg.realThreads = spec.threads;
        cfg.seed = spec.seed;
        cfg.checkpointPath = spec.checkpoint;
        cfg.resumeFromCheckpoint = spec.resume;
        cfg.checkpointEvery = spec.checkpointEvery;
        cfg.checkpointKeep = spec.checkpointKeep;
        cfg.cancel = control.cancel;
        cfg.wallDeadlineSeconds = control.wallDeadlineSeconds;
        cfg.evalWallDeadlineSeconds = control.evalWallDeadlineSeconds;
        struct Forward final : ProgressObserver
        {
            std::function<void(const ProgressEvent &)> f;
            void onProgress(const ProgressEvent &e) override { f(e); }
        } forward;
        forward.f = control.onProgress;
        CoSearch search(env, cfg, control.ctx,
                        control.onProgress ? &forward : nullptr);
        search.start();
        do {
            if (control.beforeTrial)
                control.beforeTrial();
        } while (search.step());
        result = search.result();
    }
    const std::string &prefix = spec.csvPrefix;
    if (!prefix.empty() &&
        !(writeRecordsCsv(result, env, prefix + "_records.csv") &&
          writeFrontCsv(result, env, prefix + "_front.csv") &&
          writeTraceCsv(result, prefix + "_trace.csv") &&
          writeFaultsCsv(result, prefix + "_faults.csv")))
        throw std::runtime_error("csv write failed: " + prefix);
    return result;
}

} // namespace unico::core
