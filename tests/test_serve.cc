/**
 * @file
 * Multi-tenant job core + HTTP front-end tests.
 *
 * In-process: the JobSpec field table (a CLI flag and its JSON key
 * with the same text give the same spec or the same error), typed
 * submit rejection, JSON spec parsing, the replayable event log,
 * pause/resume, a failing job, and the two isolation
 * contracts — (a) two jobs running concurrently (sharing one eval
 * cache, which only ascend jobs use) write byte-identical
 * records/front/trace CSVs to the same configs run serially and
 * uncached through the plain driver, and
 * (b) cancelling one job mid-run does not perturb its neighbour.
 *
 * End-to-end: forks the real co_search_server binary, drives it over
 * raw HTTP, asserts a served job is byte-identical (CSVs + final
 * checkpoint) to the same config through co_search_cli, and that
 * SIGINT drains every job to a valid checkpoint and exits with the
 * resumable status code 75.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/io.hh"
#include "common/json.hh"
#include "common/shutdown.hh"
#include "core/backend.hh"
#include "core/job_manager.hh"
#include "core/report.hh"
#include "net/socket.hh"
#include "workload/model_zoo.hh"

using namespace unico;

namespace {

const char *const kServer = UNICO_SERVER_PATH;
const char *const kCli = UNICO_CLI_PATH;

std::string
makeTempDir(const std::string &tag)
{
    std::string tmpl = "/tmp/unico_serve_" + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "missing file: " << path;
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** The small search config every scenario uses unless noted. */
core::JobSpec
smallSpec(std::uint64_t seed, const std::string &csv_prefix)
{
    core::JobSpec spec;
    spec.models = {"resnet"};
    spec.algo = "unico";
    spec.batch = 8;
    spec.iters = 4;
    spec.bmax = 120;
    spec.seed = seed;
    spec.csvPrefix = csv_prefix;
    return spec;
}

/**
 * Serial, uncached reference run of @p spec through the plain driver
 * + report writers — a stack assembled here, independently of
 * core::RunStack and core::runSpec, which it is compared against.
 */
void
referenceRun(const core::JobSpec &spec)
{
    std::vector<workload::Network> nets;
    for (const auto &m : spec.models)
        nets.push_back(workload::makeNetwork(m));
    // The specs compared here leave every backend field at its
    // default.
    const auto env = core::makeBackendEnv(spec.backend, std::move(nets),
                                          core::BackendOptions{});

    core::DriverConfig cfg = core::driverConfigForAlgo(spec.algo);
    cfg.batchSize = spec.batch;
    cfg.maxIter = spec.iters;
    cfg.sh.bMax = spec.bmax;
    cfg.seed = spec.seed;
    cfg.realThreads = spec.threads;
    core::CoOptimizer driver(*env, cfg);
    core::CoSearchResult result = driver.run();

    ASSERT_TRUE(core::writeRecordsCsv(
        result, *env, spec.csvPrefix + "_records.csv"));
    ASSERT_TRUE(core::writeFrontCsv(result, *env,
                                    spec.csvPrefix + "_front.csv"));
    ASSERT_TRUE(
        core::writeTraceCsv(result, spec.csvPrefix + "_trace.csv"));
}

void
expectSameCsvs(const std::string &ref_prefix,
               const std::string &got_prefix)
{
    for (const char *f : {"_records.csv", "_front.csv", "_trace.csv"})
        EXPECT_EQ(readFile(ref_prefix + f), readFile(got_prefix + f))
            << "divergent output: " << f;
}

/** Poll a job until @p pred on its status holds (or time out). */
template <typename Pred>
core::JobStatus
awaitStatus(core::JobManager &mgr, std::uint64_t id, Pred pred,
            double wait_seconds = 60.0)
{
    core::JobStatus last;
    for (int i = 0; i < static_cast<int>(wait_seconds * 100); ++i) {
        const auto st = mgr.status(id);
        EXPECT_TRUE(st.has_value());
        if (!st)
            return last;
        last = *st;
        if (pred(last))
            return last;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "timeout waiting on job " << id << " (state "
                  << core::toString(last.state) << ")";
    return last;
}

} // namespace

TEST(JobSpecJson, ParsesScalarsAndLists)
{
    const auto doc = common::Json::parse(
        "{\"name\":\"n1\",\"model\":\"resnet\",\"algo\":\"sh\","
        "\"iters\":3,\"seed\":9,\"csv_prefix\":\"/tmp/x\"}");
    const core::JobSpec spec = core::jobSpecFromJson(doc);
    EXPECT_EQ(spec.name, "n1");
    ASSERT_EQ(spec.models.size(), 1u);
    EXPECT_EQ(spec.models[0], "resnet");
    EXPECT_EQ(spec.algo, "sh");
    EXPECT_EQ(spec.iters, 3);
    EXPECT_EQ(spec.seed, 9u);

    const auto multi = common::Json::parse(
        "{\"models\":[\"resnet\",\"bert\"],\"workloads\":[\"w.csv\"]}");
    const core::JobSpec spec2 = core::jobSpecFromJson(multi);
    EXPECT_EQ(spec2.models.size(), 2u);
    EXPECT_EQ(spec2.workloads.size(), 1u);

    // Round trip: toJson -> fromJson preserves the spec fields.
    const core::JobSpec spec3 =
        core::jobSpecFromJson(core::toJson(spec));
    EXPECT_EQ(spec3.models, spec.models);
    EXPECT_EQ(spec3.algo, spec.algo);
    EXPECT_EQ(spec3.iters, spec.iters);
    EXPECT_EQ(spec3.seed, spec.seed);
}

TEST(JobSpecJson, RejectsUnknownFieldByName)
{
    try {
        core::jobSpecFromJson(
            common::Json::parse("{\"model\":\"resnet\",\"bogus\":1}"));
        FAIL() << "unknown field accepted";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("bogus"),
                  std::string::npos);
    }
}

namespace {

/** @p spec as the JSON text toJson() writes: equal texts, equal
 *  specs (toJson writes every field away from its default). */
std::string
canonical(const core::JobSpec &spec)
{
    return core::toJson(spec).dump();
}

/** co_search_cli's JobSpec for @p tokens (argv[0] is supplied). */
core::JobSpec
specFromArgs(const std::vector<std::string> &tokens)
{
    std::vector<const char *> argv = {"co_search_cli"};
    for (const auto &t : tokens)
        argv.push_back(t.c_str());
    return core::jobSpecFromArgs(
        common::CliArgs(static_cast<int>(argv.size()), argv.data()));
}

/** The error co_search_cli reports for @p tokens (parse, then
 *  validateSpec), or empty when it would run; fills @p spec. */
std::string
cliVerdict(const std::vector<std::string> &tokens, core::JobSpec *spec)
{
    try {
        *spec = specFromArgs(tokens);
        return core::validateSpec(*spec);
    } catch (const std::exception &e) {
        return e.what();
    }
}

/** The same for a POST /jobs body that is a JSON document. */
std::string
jsonVerdict(const common::Json &doc, core::JobSpec *spec)
{
    try {
        *spec = core::jobSpecFromJson(doc);
        return core::validateSpec(*spec);
    } catch (const std::exception &e) {
        return e.what();
    }
}

/** One JobSpec field: the texts it accepts and the texts it rejects,
 *  given as its CLI flag's value and as its JSON key's value. */
struct FieldCase
{
    const char *key;     ///< JSON key; the flag is key with '_' -> '-'
    bool string;         ///< JSON value is the text in quotes
    const char *backend; ///< the backend of the spec around it
    std::vector<const char *> good;
    std::vector<const char *> bad;
};

const FieldCase kFieldCases[] = {
    {"model", true, "spatial", {"mobilenet", "fsrcnn_60x80"},
     {"nosuchnet"}},
    {"workload", true, "spatial", {"my_net.txt"}, {}},
    {"backend", true, "spatial", {"ascend", "spatial"}, {"npu9000"}},
    {"scenario", true, "spatial", {"cloud", "edge"}, {"mars"}},
    {"scenario", true, "ascend", {}, {"edge"}},
    {"engine", true, "spatial", {"random", "annealing", "genetic"},
     {"quantum"}},
    {"engine", true, "ascend", {}, {"random"}},
    {"area_budget", false, "ascend", {"120", "96.1234567", "1e-7"},
     {"-5", "0", "nan"}},
    {"area_budget", false, "spatial", {}, {"120"}},
    {"max_shapes", false, "ascend", {"2"}, {"-5", "0", "1e-7", "6.4"}},
    {"max_shapes", false, "spatial", {"3"}, {"-3"}},
    {"algo", true, "spatial",
     {"unico", "hasco", "mobohb", "sh", "msh", "nsga2"}, {"bogus"}},
    {"batch", false, "spatial", {"6", "1e1"},
     {"6.4", "0", "-5", "4294967302", "+1", "01"}},
    {"iters", false, "spatial", {"3"}, {"0", "2.5"}},
    {"bmax", false, "spatial", {"64"}, {"0", "-1"}},
    {"seed", false, "spatial", {"9", "0", "9007199254740991"},
     {"-1", "18446744073709551615", "9007199254740993", "0x10", "1e999"}},
    {"threads", false, "spatial", {"3", "256"}, {"-1", "0", "257"}},
    {"checkpoint", true, "spatial", {"ck.json"}, {}},
    {"checkpoint_every", false, "spatial", {"3"}, {"0", "6.4"}},
    {"checkpoint_keep", false, "spatial", {"2"}, {"-4", "2147483648"}},
    {"csv_prefix", true, "spatial", {"out/x"}, {}},
    {"fault_rate", false, "spatial", {"0.2", "1e-3", "1"},
     {"2", "0,1", "nan", "-0.1"}},
    {"hang_rate", false, "spatial", {"0.05"}, {"-0.1", "NaN"}},
    {"corrupt_rate", false, "spatial", {"0.05"}, {"nan", "1.5"}},
    {"fault_seed", false, "spatial", {"11"}, {"-1", "Infinity"}},
    {"surrogate_keep", false, "spatial", {"0.25", "0", "1"},
     {"1.5", "-0.1", ".5"}},
};

/** The CLI tokens and the JSON body of @p c with @p text: the field
 *  in a spec on c.backend over resnet, unless the field is the
 *  backend or the network itself. */
std::pair<std::vector<std::string>, std::string>
bothVocabularies(const FieldCase &c, const std::string &text)
{
    const std::string key = c.key;
    std::string flag = key;
    std::replace(flag.begin(), flag.end(), '_', '-');
    std::vector<std::string> tokens = {"--" + flag, text};
    std::string body = "{\"" + key + "\":" +
                       (c.string ? "\"" + text + "\"" : text);
    if (key != "backend") {
        tokens.insert(tokens.end(), {"--backend", c.backend});
        body += std::string(",\"backend\":\"") + c.backend + "\"";
    }
    if (key != "model" && key != "workload") {
        tokens.push_back("resnet");
        body += ",\"model\":\"resnet\"";
    }
    return {tokens, body + "}"};
}

} // namespace

TEST(JobSpecParity, EveryFieldSameTextSameSpec)
{
    for (const FieldCase &c : kFieldCases)
        for (const char *text : c.good) {
            const auto [tokens, body] = bothVocabularies(c, text);
            SCOPED_TRACE(body);
            core::JobSpec cli, json;
            EXPECT_EQ(cliVerdict(tokens, &cli), "");
            EXPECT_EQ(jsonVerdict(common::Json::parse(body), &json), "");
            EXPECT_EQ(canonical(cli), canonical(json));
        }
}

TEST(JobSpecParity, EveryBadTextSameMessage)
{
    for (const FieldCase &c : kFieldCases)
        for (const char *text : c.bad) {
            const auto [tokens, body] = bothVocabularies(c, text);
            SCOPED_TRACE(body);
            core::JobSpec cli, json;
            const std::string cli_error = cliVerdict(tokens, &cli);
            ASSERT_NE(cli_error, "");
            common::Json doc;
            try {
                doc = common::Json::parse(body);
            } catch (const std::exception &) {
                // Not a JSON number, so not a JSON document either:
                // POST /jobs answers 400 before any field, and the
                // CLI names the field it could not parse.
                EXPECT_EQ(cli_error.rfind(std::string("job-spec field '") +
                                              c.key +
                                              "': json parse error",
                                          0),
                          0u)
                    << cli_error;
                continue;
            }
            EXPECT_EQ(jsonVerdict(doc, &json), cli_error);
        }
    // NSGA-II runs are checked like every other run.
    const std::string sizes = "batch, iters and bmax must be >= 1";
    core::JobSpec cli, json;
    EXPECT_EQ(cliVerdict({"resnet", "--algo", "nsga2", "--batch", "-5"},
                         &cli),
              sizes);
    EXPECT_EQ(jsonVerdict(common::Json::parse(R"({"model":"resnet",)"
                                              R"("algo":"nsga2","batch":-5})"),
                          &json),
              sizes);
}

TEST(JobSpecParity, MalformedFsrcnnSizesNameTheNetwork)
{
    // Each size must be an integer in 1..8192 spanning its whole
    // field; anything else is an unknown network, from either entry
    // point.
    for (const std::string name :
         {"fsrcnn_ax5", "fsrcnn_5xb", "fsrcnn_5x5junk", "fsrcnn_x5",
          "fsrcnn_5x", "fsrcnn_-5x5", "fsrcnn_+5x5", "fsrcnn_ 5x5",
          "fsrcnn_5x5x5", "fsrcnn_99999999999999999999x5",
          "fsrcnn_8193x1"}) {
        SCOPED_TRACE(name);
        core::JobSpec cli, json;
        EXPECT_EQ(cliVerdict({"--model", name}, &cli),
                  "unknown network: " + name);
        EXPECT_EQ(jsonVerdict(common::Json::parse(
                                  "{\"model\":\"" + name + "\"}"),
                              &json),
                  "unknown network: " + name);
    }
}

TEST(JobSpecParity, ShorthandsAndJsonOnlyFields)
{
    const auto json = [](const std::string &body) {
        return canonical(core::jobSpecFromJson(common::Json::parse(body)));
    };
    const auto cli = [](const std::vector<std::string> &tokens) {
        return canonical(specFromArgs(tokens));
    };
    // Positional arguments: a '.' marks a workload file.
    EXPECT_EQ(cli({"resnet", "nets/a.net", "vit"}),
              json(R"({"models":["resnet","vit"],)"
                   R"("workloads":["nets/a.net"]})"));
    // Repeated flags keep every value, as the JSON lists do.
    EXPECT_EQ(cli({"--model", "resnet", "--model", "mobilenet",
                   "--workload", "a.net", "--workload", "b.net"}),
              json(R"({"models":["resnet","mobilenet"],)"
                   R"("workloads":["a.net","b.net"]})"));
    // --surrogate is the default keep; an explicit keep wins over it,
    // and --no-surrogate wins over both.
    EXPECT_EQ(cli({"resnet", "--surrogate"}),
              json(R"({"model":"resnet","surrogate_keep":0.25})"));
    EXPECT_EQ(cli({"resnet", "--surrogate", "--surrogate-keep", "0.5"}),
              json(R"({"model":"resnet","surrogate_keep":0.5})"));
    EXPECT_EQ(cli({"resnet", "--surrogate-keep", "0.5", "--no-surrogate"}),
              json(R"({"model":"resnet"})"));
    EXPECT_EQ(cli({"resnet", "--checkpoint", "ck.json", "--resume"}),
              json(R"({"model":"resnet","checkpoint":"ck.json",)"
                   R"("resume":true})"));
    // name is JSON only: the CLI has no --name flag.
    EXPECT_EQ(specFromArgs({"resnet", "--name", "x"}).name, "");
    EXPECT_EQ(core::jobSpecFromJson(common::Json::parse(
                  R"({"model":"resnet","name":"x"})"))
                  .name,
              "x");
}

TEST(JobSpecParity, ToJsonRoundTripsAndWritesOnlyWhatIsSet)
{
    EXPECT_EQ(core::toJson(core::JobSpec{}).dump(), "{}");

    core::JobSpec every;
    every.name = "n";
    every.models = {"resnet", "vit"};
    every.workloads = {"a.net"};
    every.backend = "ascend";
    every.scenario = "cloud";
    every.engine = "genetic";
    every.areaBudgetMm2 = -5.0; // set, so written, though invalid
    every.maxShapes = 0;
    every.algo = "msh";
    every.batch = 3;
    every.iters = 4;
    every.bmax = 5;
    every.seed = 6;
    every.threads = 7;
    every.checkpoint = "ck.json";
    every.resume = true;
    every.checkpointEvery = 2;
    every.checkpointKeep = 1;
    every.csvPrefix = "out";
    every.faultRate = 0.1;
    every.hangRate = 0.2;
    every.corruptRate = 0.3;
    every.faultSeed = 8;
    every.surrogateKeep = 0.5;
    EXPECT_EQ(canonical(core::jobSpecFromJson(core::toJson(every))),
              canonical(every));
    EXPECT_EQ(core::toJson(every).members().size(), 24u);

    // The bodies a benchmark posts: an ascend job has no scenario.
    core::JobSpec ascend;
    ascend.backend = "ascend";
    ascend.models = {"fsrcnn_120x320"};
    EXPECT_EQ(core::toJson(ascend).dump(),
              R"({"backend":"ascend","models":["fsrcnn_120x320"]})");
    EXPECT_EQ(core::validateSpec(core::jobSpecFromJson(core::toJson(ascend))),
              "");
}

TEST(JobManagerSubmit, RejectsNumbersThatAreNotJsonOrDoNotFit)
{
    // The path POST /jobs takes: parse, jobSpecFromJson, submit. Each
    // body must end in a parse error or BadSpec, never in a job.
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);
    const char *bodies[] = {
        R"({"model":"resnet","batch":4294967302})",
        R"({"model":"resnet","surrogate_keep":NaN})",
        R"({"model":"resnet","fault_rate":-nan})",
        R"({"model":"resnet","seed":0x10})",
        R"({"model":"resnet","batch":6.4,"iters":+1})",
        R"({"model":"resnet","batch":6.4})",
        R"({"model":"resnet","iters":+1})",
        R"({"model":"resnet","seed":1e999})",
        R"({"model":"resnet","seed":-1})",
        R"({"model":"resnet","seed":9007199254740992})",
        R"({"model":"resnet","threads":-1})",
        R"({"model":"resnet","checkpoint_keep":2147483648})",
        R"({"model":"resnet","fault_seed":Infinity})",
        R"({"model":"resnet","surrogate_keep":.5})",
        R"({"model":"resnet","surrogate_keep":5.})",
        R"({"model":"resnet","iters":01})",
    };
    for (const char *body : bodies) {
        try {
            const core::SubmitResult sub =
                mgr.submit(core::jobSpecFromJson(common::Json::parse(body)));
            EXPECT_EQ(sub.error, core::SubmitError::BadSpec) << body;
        } catch (const std::runtime_error &) {
            // A typed parse error: the server answers 400.
        }
    }
    EXPECT_EQ(mgr.list().size(), 0u);

    // In-range values still parse, and a NaN rate set in code fails
    // the [0, 1] checks.
    const core::JobSpec ok = core::jobSpecFromJson(common::Json::parse(
        R"({"model":"resnet","batch":2147483647,"seed":9007199254740991,)"
        R"("surrogate_keep":0.5,"fault_rate":1e-3})"));
    EXPECT_EQ(ok.batch, 2147483647);
    EXPECT_EQ(ok.seed, 9007199254740991u);
    core::JobSpec nan_rate = smallSpec(1, "");
    nan_rate.faultRate = std::nan("");
    EXPECT_EQ(mgr.submit(nan_rate).error, core::SubmitError::BadSpec);
    core::JobSpec nan_keep = smallSpec(1, "");
    nan_keep.surrogateKeep = std::nan("");
    EXPECT_EQ(mgr.submit(nan_keep).error, core::SubmitError::BadSpec);
}

TEST(JobManagerSubmit, TypedRejections)
{
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.maxQueued = 2;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    // BadSpec: empty workload set, unknown algorithm, bad resume.
    core::JobSpec empty;
    EXPECT_EQ(mgr.submit(empty).error, core::SubmitError::BadSpec);

    core::JobSpec bad_algo = smallSpec(1, "");
    bad_algo.algo = "bogus";
    const auto rej = mgr.submit(bad_algo);
    EXPECT_EQ(rej.error, core::SubmitError::BadSpec);
    EXPECT_NE(rej.message.find("unknown algorithm"), std::string::npos);

    core::JobSpec bad_resume = smallSpec(1, "");
    bad_resume.resume = true;
    EXPECT_EQ(mgr.submit(bad_resume).error,
              core::SubmitError::BadSpec);

    // Backend fields are checked by the same validator.
    core::JobSpec bad_scenario = smallSpec(1, "");
    bad_scenario.scenario = "marsbase";
    EXPECT_EQ(mgr.submit(bad_scenario).error,
              core::SubmitError::BadSpec);

    // QueueFull: one long-running job occupies the single scheduler,
    // two fit in the queue, the next is rejected.
    core::JobSpec longjob = smallSpec(2, "");
    longjob.iters = 500;
    const auto running = mgr.submit(longjob);
    ASSERT_TRUE(running.ok());
    awaitStatus(mgr, running.id, [](const core::JobStatus &st) {
        return st.state == core::JobState::Running;
    });
    const auto q1 = mgr.submit(smallSpec(3, ""));
    const auto q2 = mgr.submit(smallSpec(4, ""));
    ASSERT_TRUE(q1.ok());
    ASSERT_TRUE(q2.ok());
    const auto full = mgr.submit(smallSpec(5, ""));
    EXPECT_EQ(full.error, core::SubmitError::QueueFull);

    // Cancelling a queued job is immediate and terminal.
    EXPECT_TRUE(mgr.cancel(q2.id));
    const auto q2st = mgr.status(q2.id);
    ASSERT_TRUE(q2st.has_value());
    EXPECT_EQ(q2st->state, core::JobState::Cancelled);
    EXPECT_FALSE(mgr.cancel(q2.id)) << "cancel must not re-fire";

    // ShuttingDown: no submits after shutdown().
    mgr.shutdown();
    EXPECT_EQ(mgr.submit(smallSpec(6, "")).error,
              core::SubmitError::ShuttingDown);
    // Destructor drains the cancelled jobs.
}

TEST(JobManagerSubmit, ChecksWhatTheCliChecks)
{
    // POST /jobs's path: parse, then submit. Each body is one the CLI
    // refuses as the same flags; none may become a job.
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);
    const auto submit = [&](const std::string &body) {
        return mgr.submit(core::jobSpecFromJson(common::Json::parse(body)));
    };
    const std::pair<const char *, const char *> rejected[] = {
        {R"({"backend":"ascend","model":"unet","area_budget":-5})",
         "area_budget must be positive"},
        {R"({"backend":"ascend","model":"unet","max_shapes":-3})",
         "max_shapes must be positive"},
        {R"({"model":"resnet","area_budget":120})",
         "backend 'spatial' does not support area_budget"},
        {R"({"model":"nosuchnet"})", "unknown network: nosuchnet"},
        {R"({"model":"resnet","algo":"nsga2"})",
         "nsga2 has no stepped driver: a served job could not pause, "
         "cancel mid-run or stream events; run it with co_search_cli"},
    };
    for (const auto &[body, message] : rejected) {
        SCOPED_TRACE(body);
        const core::SubmitResult sub = submit(body);
        EXPECT_EQ(sub.error, core::SubmitError::BadSpec);
        EXPECT_EQ(sub.message, message);
    }
    EXPECT_EQ(mgr.list().size(), 0u);

    // A fractional budget reaches the backend as given.
    const core::JobSpec fine = core::jobSpecFromJson(common::Json::parse(
        R"({"backend":"ascend","model":"unet","area_budget":96.1234567})"));
    EXPECT_EQ(core::validateSpec(fine), "");
    EXPECT_EQ(core::backendOptions(fine).areaBudgetMm2, 96.1234567);
    const core::JobSpec tiny = core::jobSpecFromJson(common::Json::parse(
        R"({"backend":"ascend","model":"unet","area_budget":1e-7})"));
    EXPECT_EQ(core::validateSpec(tiny), "");
    EXPECT_EQ(core::backendOptions(tiny).areaBudgetMm2, 1e-7);
}

TEST(JobManagerLifecycle, FailedJobsEndFailedAndTheNextJobRuns)
{
    // Workload files are read when the job starts, so a missing one
    // passes submit and fails the job; the job queued behind it on
    // the one scheduler still writes its normal bytes.
    const std::string dir = makeTempDir("fail");
    core::JobSpec next_ref = smallSpec(9, dir + "/ref");
    referenceRun(next_ref);

    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);
    core::JobSpec broken = smallSpec(8, "");
    broken.models.clear();
    broken.workloads = {dir + "/no_such.net"};
    const auto bad = mgr.submit(broken);
    ASSERT_TRUE(bad.ok()) << bad.message;
    core::JobSpec next = next_ref;
    next.csvPrefix = dir + "/mgr";
    const auto good = mgr.submit(next);
    ASSERT_TRUE(good.ok());

    const auto bst = mgr.wait(bad.id);
    ASSERT_TRUE(bst.has_value());
    EXPECT_EQ(bst->state, core::JobState::Failed);
    EXPECT_NE(bst->error.find(dir + "/no_such.net"), std::string::npos)
        << bst->error;
    EXPECT_FALSE(mgr.result(bad.id).has_value());

    const auto gst = mgr.wait(good.id);
    ASSERT_TRUE(gst.has_value());
    EXPECT_EQ(gst->state, core::JobState::Completed);
    expectSameCsvs(dir + "/ref", dir + "/mgr");

    // A job that cannot write its CSVs fails too, with no result.
    core::JobSpec unwritable = smallSpec(7, dir + "/no_such_dir/out");
    unwritable.iters = 1;
    const auto uw = mgr.submit(unwritable);
    ASSERT_TRUE(uw.ok());
    const auto ust = mgr.wait(uw.id);
    ASSERT_TRUE(ust.has_value());
    EXPECT_EQ(ust->state, core::JobState::Failed);
    EXPECT_EQ(ust->error, "csv write failed: " + unwritable.csvPrefix);
    EXPECT_FALSE(mgr.result(uw.id).has_value());
}

TEST(JobManagerIsolation, ConcurrentJobsMatchSerialByteForByte)
{
    const std::string dir = makeTempDir("conc");

    // A spatial pair, then an ascend pair (the backend that memoizes).
    core::JobSpec specs[] = {smallSpec(11, dir + "/ref1"),
                             smallSpec(22, dir + "/ref2"),
                             smallSpec(33, dir + "/ref3"),
                             smallSpec(44, dir + "/ref4")};
    for (int i : {2, 3}) {
        specs[i].backend = "ascend";
        specs[i].models = {"fsrcnn_120x320"};
        specs[i].batch = 4;
        specs[i].iters = 2;
        specs[i].bmax = 12;
    }
    for (const auto &spec : specs)
        referenceRun(spec);

    // Concurrent re-run of each pair under one manager, sharing one
    // evaluation cache (the references ran uncached — sharing must be
    // byte-neutral).
    accel::EvalCache cache(8 * 1024 * 1024);
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 2;
    cfg.sharedCache = &cache;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    const auto runPair = [&](int first) {
        std::uint64_t ids[2] = {0, 0};
        for (int k = 0; k < 2; ++k) {
            core::JobSpec spec = specs[first + k];
            spec.csvPrefix = dir + "/mgr" + std::to_string(first + k + 1);
            const auto sub = mgr.submit(spec);
            ASSERT_TRUE(sub.ok());
            ids[k] = sub.id;
        }
        for (int k = 0; k < 2; ++k) {
            const auto st = mgr.wait(ids[k]);
            ASSERT_TRUE(st.has_value());
            EXPECT_EQ(st->state, core::JobState::Completed);
            const std::string n = std::to_string(first + k + 1);
            expectSameCsvs(dir + "/ref" + n, dir + "/mgr" + n);
        }
    };

    // Spatial jobs query the analytical model directly.
    runPair(0);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);

    // The ascend jobs actually shared the cache — both hit one table.
    runPair(2);
    EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(JobManagerIsolation, CancelMidRunDoesNotPerturbSurvivor)
{
    const std::string dir = makeTempDir("cancel");

    core::JobSpec survivor_ref = smallSpec(33, dir + "/ref");
    referenceRun(survivor_ref);

    accel::EvalCache cache(8 * 1024 * 1024);
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 2;
    cfg.sharedCache = &cache;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    core::JobSpec victim = smallSpec(44, "");
    victim.iters = 500;
    victim.checkpoint = dir + "/victim_ck.json";
    const auto vs = mgr.submit(victim);
    ASSERT_TRUE(vs.ok());

    core::JobSpec survivor = survivor_ref;
    survivor.csvPrefix = dir + "/mgr";
    const auto ss = mgr.submit(survivor);
    ASSERT_TRUE(ss.ok());

    // Cancel the victim once it has really started searching.
    awaitStatus(mgr, vs.id, [](const core::JobStatus &st) {
        return st.iteration >= 1;
    });
    EXPECT_TRUE(mgr.cancel(vs.id));

    const auto vst = mgr.wait(vs.id);
    ASSERT_TRUE(vst.has_value());
    EXPECT_EQ(vst->state, core::JobState::Cancelled);
    EXPECT_TRUE(vst->interrupted);
    EXPECT_TRUE(fileExists(dir + "/victim_ck.json"))
        << "cancelled job must leave a final checkpoint";
    const auto vres = mgr.result(vs.id);
    ASSERT_TRUE(vres.has_value());
    EXPECT_TRUE(vres->interrupted);

    const auto sst = mgr.wait(ss.id);
    ASSERT_TRUE(sst.has_value());
    EXPECT_EQ(sst->state, core::JobState::Completed);
    expectSameCsvs(dir + "/ref", dir + "/mgr");
}

TEST(JobManagerLifecycle, PauseParksAndResumeContinues)
{
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    core::JobSpec spec = smallSpec(7, "");
    spec.iters = 500;
    const auto sub = mgr.submit(spec);
    ASSERT_TRUE(sub.ok());

    awaitStatus(mgr, sub.id, [](const core::JobStatus &st) {
        return st.iteration >= 1;
    });
    ASSERT_TRUE(mgr.pause(sub.id));
    const auto paused =
        awaitStatus(mgr, sub.id, [](const core::JobStatus &st) {
            return st.state == core::JobState::Paused;
        });

    // Parked: no trials complete while paused.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto still = mgr.status(sub.id);
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still->state, core::JobState::Paused);
    EXPECT_EQ(still->iteration, paused.iteration);

    ASSERT_TRUE(mgr.resume(sub.id));
    awaitStatus(mgr, sub.id, [&](const core::JobStatus &st) {
        return st.iteration > paused.iteration;
    });

    // Wind the long job down; cancel is the fast path out.
    ASSERT_TRUE(mgr.cancel(sub.id));
    const auto done = mgr.wait(sub.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, core::JobState::Cancelled);
}

TEST(JobManagerShutdown, SignalStopsRunningQueuedAndLaterJobs)
{
    // One SIGTERM reaches every job through the shutdown token their
    // drivers poll, however many jobs the manager has seen: the
    // running one, one queued behind it and one submitted after the
    // signal all drain.
    const common::ShutdownScope scope;
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.maxQueued = 512;
    core::JobManager mgr(cfg);

    // The first job starts and parks before its first trial, so 256
    // more jobs wait behind it and are cancelled while queued: none
    // of them runs a search.
    core::JobSpec spec = smallSpec(31, "");
    spec.iters = 500;
    const auto running = mgr.submit(spec);
    ASSERT_TRUE(running.ok());
    ASSERT_TRUE(mgr.pause(running.id));
    ASSERT_FALSE(mgr.eventsSince(running.id, 0).empty()); // started
    spec.iters = 2;
    for (int i = 0; i < 256; ++i) {
        const auto early = mgr.submit(spec);
        ASSERT_TRUE(early.ok()) << early.message;
        ASSERT_TRUE(mgr.cancel(early.id));
        EXPECT_EQ(mgr.status(early.id)->state, core::JobState::Cancelled);
    }
    ASSERT_TRUE(mgr.resume(running.id));
    const auto queued = mgr.submit(spec);
    ASSERT_TRUE(queued.ok());

    ASSERT_EQ(std::raise(SIGTERM), 0);
    const auto later = mgr.submit(spec);
    ASSERT_TRUE(later.ok());

    for (const std::uint64_t id : {running.id, queued.id, later.id}) {
        SCOPED_TRACE(id);
        const auto st = mgr.wait(id);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->state, core::JobState::Cancelled);
        EXPECT_EQ(st->error, "signal");
    }
}

TEST(JobManagerShutdown, SignalDrainsAPausedJobWithoutShutdown)
{
    // A signal only cancels the shutdown token and notifies nobody. A
    // paused job must still see it, with no shutdown(), cancel() or
    // resume() to wake it, and drain to a checkpoint.
    const common::ShutdownScope scope;
    const std::string dir = makeTempDir("paused_signal");
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    core::JobManager mgr(cfg);

    // No cadence saves: the only checkpoint is the drain's.
    core::JobSpec spec = smallSpec(41, "");
    spec.iters = 500;
    spec.checkpoint = dir + "/ck.json";
    spec.checkpointEvery = 1000;
    const auto sub = mgr.submit(spec);
    ASSERT_TRUE(sub.ok()) << sub.message;
    awaitStatus(mgr, sub.id, [](const core::JobStatus &st) {
        return st.iteration >= 1;
    });
    ASSERT_TRUE(mgr.pause(sub.id));
    awaitStatus(mgr, sub.id, [](const core::JobStatus &st) {
        return st.state == core::JobState::Paused;
    });
    ASSERT_FALSE(fileExists(spec.checkpoint));

    ASSERT_EQ(std::raise(SIGTERM), 0);
    const auto done =
        awaitStatus(mgr, sub.id, [](const core::JobStatus &st) {
            return core::isTerminal(st.state);
        }, 30.0);
    EXPECT_EQ(done.state, core::JobState::Cancelled);
    EXPECT_EQ(done.error, "signal");
    EXPECT_TRUE(fileExists(spec.checkpoint))
        << "a drained job must leave a final checkpoint";
    const auto res = mgr.result(sub.id);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->interrupted);
}

TEST(JobManagerEvents, LogIsReplayableAndTyped)
{
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    const auto sub = mgr.submit(smallSpec(3, ""));
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(mgr.wait(sub.id).has_value());

    // Full replay from zero after completion.
    const auto events = mgr.eventsSince(sub.id, 0);
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events.front().kind, core::ProgressKind::Started);
    EXPECT_EQ(events.back().kind, core::ProgressKind::Finished);
    int trials = 0;
    for (const auto &ev : events) {
        EXPECT_EQ(ev.job, sub.id);
        if (ev.kind == core::ProgressKind::TrialCompleted)
            ++trials;
    }
    EXPECT_EQ(trials, 4);

    // Mid-log resume yields exactly the tail; past-the-end returns
    // empty (stream exhausted) instead of blocking.
    const auto tail = mgr.eventsSince(sub.id, events.size() - 1);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].kind, core::ProgressKind::Finished);
    EXPECT_TRUE(mgr.eventsSince(sub.id, events.size()).empty());
}

// ---------------------------------------------------------------
// End-to-end: the real server binary over real HTTP.
// ---------------------------------------------------------------

namespace {

/** Fork and exec @p args; stderr goes to @p stderr_fd and stdout to
 *  @p stdout_fd when given, stdout to /dev/null otherwise. */
pid_t
spawn(const std::vector<std::string> &args, int stderr_fd = -1,
      int stdout_fd = -1)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        if (stdout_fd >= 0)
            dup2(stdout_fd, STDOUT_FILENO);
        else
            std::freopen("/dev/null", "w", stdout);
        if (stderr_fd >= 0)
            dup2(stderr_fd, STDERR_FILENO);
        execv(argv[0], argv.data());
        _exit(127);
    }
    return pid;
}

int
awaitPortFile(const std::string &path, double wait_seconds = 30.0)
{
    for (int i = 0; i < static_cast<int>(wait_seconds * 100); ++i) {
        std::ifstream in(path);
        int port = 0;
        if (in >> port && port > 0)
            return port;
        usleep(10000);
    }
    ADD_FAILURE() << "port file never appeared: " << path;
    return -1;
}

/** Reap @p pid, SIGKILLing it if it outlives @p wait_seconds. */
int
reapWithin(pid_t pid, double wait_seconds)
{
    int status = 0;
    for (int i = 0; i < static_cast<int>(wait_seconds * 100); ++i) {
        if (waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
        usleep(10000);
    }
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return -3;
}

/** Everything readable from @p fd until EOF or the absolute
 *  monotonicNow() @p deadline; closes it. */
std::string
drain(int fd, double deadline)
{
    std::string text;
    char buf[4096];
    for (;;) {
        const double left = deadline - common::monotonicNow();
        if (left <= 0.0 ||
            common::waitReadable(fd, left) != common::IoStatus::Ok)
            break;
        const ssize_t n = read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return text;
}

/** Run @p args to exit; returns its exit code (negative when it had
 *  to be killed after 60 s) and fills @p err with everything it wrote
 *  to stderr (and @p out, when given, with its stdout). The outputs
 *  are read one after the other, so each must fit a pipe buffer. */
int
runForStderr(const std::vector<std::string> &args, std::string &err,
             std::string *out = nullptr)
{
    int errFds[2];
    int outFds[2] = {-1, -1};
    EXPECT_EQ(pipe2(errFds, O_CLOEXEC), 0);
    if (out != nullptr) {
        EXPECT_EQ(pipe2(outFds, O_CLOEXEC), 0);
    }
    const pid_t pid = spawn(args, errFds[1], outFds[1]);
    ::close(errFds[1]);
    if (out != nullptr)
        ::close(outFds[1]);
    EXPECT_GT(pid, 0);
    const double deadline = common::monotonicNow() + 60.0;
    err = drain(errFds[0], deadline);
    if (out != nullptr)
        *out = drain(outFds[0], deadline);
    return reapWithin(pid,
                      std::max(0.5, deadline - common::monotonicNow()));
}

/** One-shot HTTP exchange: send @p request, read to connection
 *  close, return the raw response (head + body). */
std::string
httpExchange(int port, const std::string &request,
             double wait_seconds = 120.0)
{
    std::string error;
    const int fd = net::tcpConnect(
        "127.0.0.1:" + std::to_string(port), 10.0, &error);
    EXPECT_GE(fd, 0) << error;
    if (fd < 0)
        return {};
    EXPECT_EQ(common::writeFull(fd, request), common::IoStatus::Ok);
    std::string response;
    char buf[4096];
    for (;;) {
        const common::IoStatus st =
            common::waitReadable(fd, wait_seconds);
        if (st != common::IoStatus::Ok)
            break;
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            response.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            continue;
        break; // closed or hard error: response is complete
    }
    ::close(fd);
    return response;
}

std::string
httpGet(int port, const std::string &target,
        double wait_seconds = 120.0)
{
    return httpExchange(port,
                        "GET " + target +
                            " HTTP/1.1\r\nHost: x\r\n"
                            "Connection: close\r\n\r\n",
                        wait_seconds);
}

std::string
httpPost(int port, const std::string &target, const std::string &body)
{
    return httpExchange(
        port, "POST " + target +
                  " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n"
                  "Connection: close\r\n\r\n" +
                  body);
}

/** Body (bytes after the blank line) of a raw HTTP response. */
std::string
bodyOf(const std::string &response)
{
    const std::size_t sep = response.find("\r\n\r\n");
    return sep == std::string::npos ? std::string()
                                    : response.substr(sep + 4);
}

int
statusOf(const std::string &response)
{
    std::istringstream head(response);
    std::string version;
    int status = 0;
    head >> version >> status;
    return status;
}

} // namespace

TEST(ServeCli, RejectsTheSizesTheServerRejects)
{
    // The spawned CLI on a few flags the in-process JobSpecParity
    // table covers for every field: it exits 2 with one error: line
    // and the usage text, and the error is what POST /jobs's path
    // (parse, then submit) answers for the same text.
    struct Case
    {
        std::vector<std::string> flags;
        const char *body; ///< the same fields as a POST /jobs body
    };
    const Case cases[] = {
        {{"--batch", "-5"}, R"({"model":"resnet","batch":-5})"},
        {{"--batch", "6.4"}, R"({"model":"resnet","batch":6.4})"},
        {{"--seed", "-1"}, R"({"model":"resnet","seed":-1})"},
        {{"--algo", "bogus"}, R"({"model":"resnet","algo":"bogus"})"},
        {{"--fault-rate", "0,1"}, R"({"model":"resnet","fault_rate":0,1})"},
        {{"--model", "fsrcnn_ax5"}, R"({"model":"fsrcnn_ax5"})"},
    };
    core::JobManagerConfig cfg;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);
    for (const Case &c : cases) {
        SCOPED_TRACE(c.body);
        std::string served;
        try {
            const core::SubmitResult rej = mgr.submit(
                core::jobSpecFromJson(common::Json::parse(c.body)));
            ASSERT_EQ(rej.error, core::SubmitError::BadSpec);
            served = rej.message;
        } catch (const std::runtime_error &e) {
            served = e.what();
        }

        std::vector<std::string> args = {kCli, "resnet"};
        args.insert(args.end(), c.flags.begin(), c.flags.end());
        std::string err;
        EXPECT_EQ(runForStderr(args, err), 2);
        EXPECT_EQ(err.rfind("error: ", 0), 0u) << err;
        EXPECT_NE(err.find("\nusage: "), std::string::npos) << err;
        // "0,1" is no JSON number, so the body is no JSON document:
        // the server refuses it before any field, the CLI names one.
        const std::string expected =
            c.flags[0] == "--fault-rate"
                ? "error: job-spec field 'fault_rate': json parse error"
                : "error: " + served + "\n";
        EXPECT_EQ(err.rfind(expected, 0), 0u) << err << "vs: " << served;
    }
    EXPECT_EQ(mgr.list().size(), 0u);
}

TEST(ServeCli, RejectsDeadlinesThatAreNotFiniteNonNegative)
{
    // The CLI's process flags outside the JobSpec: a deadline must be
    // a finite number of seconds >= 0, --workers 0..1024, and every
    // number the whole text of its value. Anything else exits 2 with
    // one error: line naming the flag and the usage text, before any
    // banner.
    const std::vector<std::vector<std::string>> cases = {
        {"--wall-deadline", "-1"},        {"--wall-deadline", "abc"},
        {"--wall-deadline", "nan"},       {"--wall-deadline", "inf"},
        {"--wall-deadline", "5s"},        {"--eval-wall-deadline", "nan"},
        {"--eval-wall-deadline", "-0.5"}, {"--eval-wall-deadline", "1e999"},
        {"--workers", "-1"},              {"--workers", "abc"},
        {"--workers", "2x"},              {"--workers", "1.5"},
        {"--cache-mb", "lots"},           {"--worker-eval-deadline", "5s"},
        {"--worker-chaos-kills", "3x"},   {"--worker-chaos-seed", "0x5eed"},
        {"--progress-every", "every"},    {"--fleet-connect-wait", "30s"},
        {"--fleet-reconnect-wait", "nan"},
        {"--fleet-connect-deadline", "10s"},
        {"--fleet-reconnect-attempts", "ten"},
        {"--fleet-reconnect-max", "2x"}};
    for (const auto &flags : cases) {
        SCOPED_TRACE(flags[0] + " " + flags[1]);
        std::vector<std::string> args = {kCli, "resnet", "--batch", "2",
                                         "--iters", "1", "--bmax", "4"};
        args.insert(args.end(), flags.begin(), flags.end());
        std::string err;
        std::string out;
        EXPECT_EQ(runForStderr(args, err, &out), 2);
        EXPECT_EQ(err.rfind("error: " + flags[0], 0), 0u) << err;
        EXPECT_EQ(err.find('\n'), err.find("\nusage: ")) << err;
        EXPECT_EQ(out, "");
    }
}

TEST(ServeCli, ServerRejectsBadCapacityFlags)
{
    // A negative or zero scheduler count, an unbounded or empty queue
    // and a number that is not the whole value are usage errors: exit
    // 2 with one error: line naming the flag and the usage text,
    // before the server binds, prints its banner or writes its port
    // file.
    const std::string dir = makeTempDir("flags");
    const std::vector<std::vector<std::string>> cases = {
        {"--max-concurrent", "-1"},  {"--max-concurrent", "0"},
        {"--max-concurrent", "257"}, {"--max-queued", "-1"},
        {"--max-queued", "0"},       {"--max-queued", "5x"},
        {"--max-concurrent", "two"}, {"--max-queued", "1e3"},
        {"--cache-mb", "lots"}};
    for (const auto &flags : cases) {
        SCOPED_TRACE(flags[0] + " " + flags[1]);
        std::vector<std::string> args = {kServer, "--listen", "127.0.0.1:0",
                                         "--port-file", dir + "/port"};
        args.insert(args.end(), flags.begin(), flags.end());
        std::string err;
        std::string out;
        EXPECT_EQ(runForStderr(args, err, &out), 2);
        EXPECT_EQ(err.rfind("error: " + flags[0], 0), 0u) << err;
        EXPECT_EQ(err.find('\n'), err.find("\nusage: ")) << err;
        EXPECT_EQ(out, "");
        EXPECT_FALSE(fileExists(dir + "/port"));
    }
}

TEST(ServeHttp, JobByteIdenticalToCliAndSigintDrainsTo75)
{
    const std::string dir = makeTempDir("http");

    const pid_t server = spawn({kServer, "--listen", "127.0.0.1:0",
                                "--port-file", dir + "/port",
                                "--max-concurrent", "2"});
    ASSERT_GT(server, 0);
    const int port = awaitPortFile(dir + "/port");
    ASSERT_GT(port, 0);

    EXPECT_EQ(statusOf(httpGet(port, "/healthz")), 200);
    EXPECT_EQ(statusOf(httpGet(port, "/nothing")), 404);
    EXPECT_EQ(statusOf(httpGet(port, "/jobs/99")), 404);
    EXPECT_EQ(
        statusOf(httpPost(port, "/jobs", "{\"algo\":\"bogus\"}")),
        400);
    const std::string bad_size =
        httpPost(port, "/jobs", "{\"model\":\"fsrcnn_ax5\"}");
    EXPECT_EQ(statusOf(bad_size), 400);
    EXPECT_NE(bodyOf(bad_size).find("unknown network: fsrcnn_ax5"),
              std::string::npos)
        << bad_size;

    // Submit the job the CLI comparison below re-runs.
    const std::string submit = httpPost(
        port, "/jobs",
        "{\"model\":\"resnet\",\"algo\":\"unico\",\"batch\":8,"
        "\"iters\":4,\"bmax\":120,\"seed\":5,"
        "\"csv_prefix\":\"" + dir + "/http\","
        "\"checkpoint\":\"" + dir + "/http_ck.json\"}");
    ASSERT_EQ(statusOf(submit), 202);
    const auto id = common::Json::parse(bodyOf(submit)).at("id");
    const std::string job = std::to_string(id.asInt());

    // Stream the event log to exhaustion: NDJSON, started..finished.
    const std::string stream =
        bodyOf(httpGet(port, "/jobs/" + job + "/events"));
    std::istringstream lines(stream);
    std::string line, first, last;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        const auto ev = common::Json::parse(line);
        if (first.empty())
            first = ev.at("event").asString();
        last = ev.at("event").asString();
        ++count;
    }
    EXPECT_GE(count, 3u);
    EXPECT_EQ(first, "started");
    EXPECT_EQ(last, "finished");

    // Terminal status via the control plane.
    const auto st =
        common::Json::parse(bodyOf(httpGet(port, "/jobs/" + job)));
    EXPECT_EQ(st.at("state").asString(), "completed");

    // Byte-identity: the same config through co_search_cli.
    const pid_t cli = spawn(
        {kCli, "resnet", "--algo", "unico", "--batch", "8", "--iters",
         "4", "--bmax", "120", "--seed", "5", "--csv-prefix",
         dir + "/cli", "--checkpoint", dir + "/cli_ck.json"});
    ASSERT_GT(cli, 0);
    EXPECT_EQ(reapWithin(cli, 120.0), 0);
    expectSameCsvs(dir + "/cli", dir + "/http");
    EXPECT_EQ(readFile(dir + "/cli_ck.json"),
              readFile(dir + "/http_ck.json"))
        << "served job wrote a different final checkpoint";

    // Long-running job + SIGINT: the server drains it to a valid
    // checkpoint and exits with the resumable status code.
    const std::string long_submit = httpPost(
        port, "/jobs",
        "{\"model\":\"resnet\",\"algo\":\"unico\",\"batch\":8,"
        "\"iters\":500,\"bmax\":120,\"seed\":6,"
        "\"checkpoint\":\"" + dir + "/drain_ck.json\"}");
    ASSERT_EQ(statusOf(long_submit), 202);
    const std::string long_job = std::to_string(
        common::Json::parse(bodyOf(long_submit)).at("id").asInt());
    // Started searching for real before the signal lands.
    for (int i = 0; i < 3000; ++i) {
        const auto probe = common::Json::parse(
            bodyOf(httpGet(port, "/jobs/" + long_job)));
        if (probe.at("iteration").asInt() >= 1)
            break;
        usleep(10000);
    }

    ASSERT_EQ(kill(server, SIGINT), 0);
    EXPECT_EQ(reapWithin(server, 120.0), 75)
        << "graceful server shutdown must exit resumable";
    EXPECT_TRUE(fileExists(dir + "/drain_ck.json"))
        << "drained job must leave a checkpoint";
}

TEST(ServeHttp, CancelEndpointStopsJobWithoutKillingServer)
{
    const std::string dir = makeTempDir("cancel");

    const pid_t server = spawn({kServer, "--listen", "127.0.0.1:0",
                                "--port-file", dir + "/port"});
    ASSERT_GT(server, 0);
    const int port = awaitPortFile(dir + "/port");
    ASSERT_GT(port, 0);

    const std::string submit = httpPost(
        port, "/jobs",
        "{\"model\":\"resnet\",\"algo\":\"unico\",\"batch\":8,"
        "\"iters\":500,\"bmax\":120,\"seed\":8}");
    ASSERT_EQ(statusOf(submit), 202);
    const std::string job = std::to_string(
        common::Json::parse(bodyOf(submit)).at("id").asInt());

    EXPECT_EQ(statusOf(httpPost(port, "/jobs/" + job + "/cancel", "")),
              200);
    // The stream ends (terminal state) and reports cancelled.
    bodyOf(httpGet(port, "/jobs/" + job + "/events"));
    const auto st =
        common::Json::parse(bodyOf(httpGet(port, "/jobs/" + job)));
    EXPECT_EQ(st.at("state").asString(), "cancelled");
    // Cancel on a terminal job is a typed conflict, not a success.
    EXPECT_EQ(statusOf(httpPost(port, "/jobs/" + job + "/cancel", "")),
              409);

    // Server is still healthy afterwards.
    EXPECT_EQ(statusOf(httpGet(port, "/healthz")), 200);

    ASSERT_EQ(kill(server, SIGINT), 0);
    EXPECT_EQ(reapWithin(server, 60.0), 75);
}
