#include "core/checkpoint.hh"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc64.hh"
#include "common/io.hh"
#include "core/mobo.hh"

namespace unico::core {

namespace {

using common::Json;
using common::JsonWriter;

/** Infinity-safe double encoding (JSON has no Inf literal). */
void
writeNumberOrInf(JsonWriter &w, double v)
{
    if (v == std::numeric_limits<double>::infinity())
        w.string("inf");
    else if (v == -std::numeric_limits<double>::infinity())
        w.string("-inf");
    else
        w.number(v);
}

double
parseNumberOrInf(const Json &j)
{
    if (j.isString()) {
        if (j.asString() == "inf")
            return std::numeric_limits<double>::infinity();
        if (j.asString() == "-inf")
            return -std::numeric_limits<double>::infinity();
        throw std::runtime_error("checkpoint: bad number literal '" +
                                 j.asString() + "'");
    }
    return j.asDouble();
}

void
writeObjectives(JsonWriter &w, const moo::Objectives &y)
{
    w.beginArray();
    for (double v : y)
        w.number(v);
    w.endArray();
}

moo::Objectives
objectivesFromJson(const Json &j)
{
    moo::Objectives y;
    y.reserve(j.size());
    for (std::size_t i = 0; i < j.size(); ++i)
        y.push_back(j.at(i).asDouble());
    return y;
}

accel::HwPoint
hwFromJson(const Json &j)
{
    accel::HwPoint h;
    h.reserve(j.size());
    for (std::size_t i = 0; i < j.size(); ++i)
        h.push_back(static_cast<std::size_t>(j.at(i).asInt()));
    return h;
}

// The writers below list members in key order, the order a Json
// object (a std::map) prints them in.

void
writeRecord(JsonWriter &w, const HwEvalRecord &rec)
{
    w.beginObject();
    w.key("areaMm2").number(rec.ppa.areaMm2);
    w.key("budgetSpent").number(rec.budgetSpent);
    w.key("constraintOk").boolean(rec.constraintOk);
    w.key("degraded").boolean(rec.degraded);
    w.key("energyMj").number(rec.ppa.energyMj);
    w.key("faults").number(rec.faults);
    w.key("feasible").boolean(rec.ppa.feasible);
    w.key("fullySearched").boolean(rec.fullySearched);
    w.key("highFidelity").boolean(rec.highFidelity);
    w.key("hw").beginArray();
    for (std::size_t axis : rec.hw)
        w.number(static_cast<double>(axis));
    w.endArray();
    w.key("iteration").number(rec.iteration);
    w.key("latencyMs").number(rec.ppa.latencyMs);
    w.key("penalized").boolean(rec.penalized);
    w.key("powerMw").number(rec.ppa.powerMw);
    w.key("sensitivity").number(rec.sensitivity);
    w.endObject();
}

HwEvalRecord
recordFromJson(const Json &j)
{
    HwEvalRecord rec;
    rec.hw = hwFromJson(j.at("hw"));
    rec.ppa.latencyMs = j.at("latencyMs").asDouble();
    rec.ppa.powerMw = j.at("powerMw").asDouble();
    rec.ppa.areaMm2 = j.at("areaMm2").asDouble();
    rec.ppa.energyMj = j.at("energyMj").asDouble();
    rec.ppa.feasible = j.at("feasible").asBool();
    rec.sensitivity = j.at("sensitivity").asDouble();
    rec.budgetSpent = static_cast<int>(j.at("budgetSpent").asInt());
    rec.constraintOk = j.at("constraintOk").asBool();
    rec.fullySearched = j.at("fullySearched").asBool();
    rec.highFidelity = j.at("highFidelity").asBool();
    rec.iteration = static_cast<int>(j.at("iteration").asInt());
    rec.faults = static_cast<int>(j.at("faults").asInt());
    rec.degraded = j.at("degraded").asBool();
    rec.penalized = j.at("penalized").asBool();
    return rec;
}

void
writeFaults(JsonWriter &w, const FaultStats &f)
{
    // f.transport is deliberately NOT serialized: transport faults
    // are recovered transparently by the fleet, so a checkpoint (and
    // therefore a resume) must be byte-identical whether or not
    // workers were killed along the way.
    w.beginObject();
    w.key("checkpointRecoveries")
        .number(static_cast<double>(f.checkpointRecoveries));
    w.key("corrupt").number(static_cast<double>(f.corrupt));
    w.key("degradations").number(static_cast<double>(f.degradations));
    w.key("fatal").number(static_cast<double>(f.fatal));
    w.key("gpFallbacks").number(static_cast<double>(f.gpFallbacks));
    w.key("penalized").number(static_cast<double>(f.penalized));
    w.key("retries").number(static_cast<double>(f.retries));
    w.key("timeout").number(static_cast<double>(f.timeout));
    w.key("transient").number(static_cast<double>(f.transient));
    w.endObject();
}

void
writeTracePoint(JsonWriter &w, const TracePoint &tp)
{
    w.beginObject();
    w.key("front").beginArray();
    for (const auto &y : tp.front)
        writeObjectives(w, y);
    w.endArray();
    w.key("hours").number(tp.hours);
    w.endObject();
}

std::uint64_t
countOrZero(const Json &j, const char *key)
{
    return j.has(key) ? static_cast<std::uint64_t>(j.at(key).asInt())
                      : 0;
}

FaultStats
faultsFromJson(const Json &j)
{
    FaultStats f;
    f.transient = static_cast<std::uint64_t>(j.at("transient").asInt());
    f.timeout = static_cast<std::uint64_t>(j.at("timeout").asInt());
    f.corrupt = static_cast<std::uint64_t>(j.at("corrupt").asInt());
    f.fatal = static_cast<std::uint64_t>(j.at("fatal").asInt());
    f.retries = static_cast<std::uint64_t>(j.at("retries").asInt());
    f.degradations =
        static_cast<std::uint64_t>(j.at("degradations").asInt());
    f.penalized = static_cast<std::uint64_t>(j.at("penalized").asInt());
    // Absent in version-1 documents.
    f.gpFallbacks = countOrZero(j, "gpFallbacks");
    f.checkpointRecoveries = countOrZero(j, "checkpointRecoveries");
    return f;
}

} // namespace

std::string
configFingerprint(const DriverConfig &cfg)
{
    std::ostringstream oss;
    // maxIter is deliberately excluded: per-trial behaviour depends
    // only on the trial index, so a checkpoint taken after k trials
    // resumes under any maxIter > k (a killed run does not know how
    // many trials it completed). The 0 after randomFraction is the
    // retired ARD flag, kept so that existing keys still match.
    oss << cfg.name << '|' << cfg.batchSize << '|'
        << cfg.sh.bMax << '|' << cfg.sh.eta << '|' << cfg.sh.kFrac << '|'
        << cfg.sh.pFrac << '|' << toString(cfg.budgetMode) << '|'
        << toString(cfg.updateMode) << '|' << cfg.useRobustness << '|'
        << cfg.alpha << '|' << cfg.randomFraction << '|' << 0 << '|'
        << cfg.workers << '|' << cfg.minBudgetPerRound << '|'
        << common::hexU64(cfg.seed) << '|' << cfg.recovery.maxRetries
        << '|' << RecoveryConfig::kBackoffBaseSeconds << '|'
        << RecoveryConfig::kBackoffCapSeconds << '|'
        << cfg.recovery.degradeAfterFaults;
    return oss.str();
}

CheckpointIoStatus
checkpointCompatibility(const SearchCheckpoint &ck,
                        const std::string &liveConfigKey,
                        const common::StackIdentity &live)
{
    using Field = common::StackIdentity::Field;
    if (ck.configKey != liveConfigKey)
        return CheckpointIoStatus::failure(
            "produced by a different configuration");
    // Stack identity: empty fields (legacy documents, ad-hoc envs)
    // are unknown rather than different.
    switch (common::StackIdentity{ck.backend, ck.scenario,
                                  ck.workloadDigest}
                .mismatch(live)) {
      case Field::Backend:
        return CheckpointIoStatus::failure(
            "backend mismatch: checkpoint was produced by backend '" +
            ck.backend + "', live run uses '" + live.backend + "'");
      case Field::Scenario:
        return CheckpointIoStatus::failure(
            "scenario mismatch: checkpoint was produced under '" +
            ck.scenario + "', live run uses '" + live.scenario + "'");
      case Field::Workload:
        return CheckpointIoStatus::failure(
            "workload mismatch: checkpoint digest " + ck.workloadDigest +
            " != live digest " + live.workloadDigest);
      case Field::None:
        break;
    }
    return CheckpointIoStatus::success();
}

const std::string &
CheckpointWriter::format(const CheckpointSource &src)
{
    write(src);
#ifndef NDEBUG
    // Debug builds check that no cached element changed after the
    // save that wrote it: a writer without a cache prints the same.
    CheckpointWriter fresh;
    assert(fresh.write(src) == doc_);
#endif
    return doc_;
}

const std::string &
CheckpointWriter::write(const CheckpointSource &src)
{
    const CoSearchResult &result = src.result;
    doc_.clear();
    JsonWriter w(doc_, 2);
    w.beginObject();
    w.key("backend").string(src.stack.backend);
    w.key("clockEvaluations")
        .number(static_cast<double>(src.clockEvaluations));
    w.key("clockSeconds").number(src.clockSeconds);
    w.key("completedIterations").number(src.completedIterations);
    w.key("configKey").string(src.configKey);
    w.key("faults");
    writeFaults(w, result.faults);

    w.key("front").beginArray();
    for (const auto &entry : result.front.entries()) {
        w.beginObject();
        w.key("id").number(static_cast<double>(entry.id));
        w.key("objectives");
        writeObjectives(w, entry.objectives);
        w.endObject();
    }
    w.endArray();

    w.key("records").cachedArray(
        records_, result.records.size(),
        [&result](JsonWriter &e, std::size_t i) {
            writeRecord(e, result.records[i]);
        });
    w.key("sampler");
    src.sampler.writeState(w, observations_);
    w.key("scenario").string(src.stack.scenario);

    const std::vector<double> &dist = src.selector.distances();
    w.key("selector").beginObject();
    w.key("distances").cachedArray(
        distances_, dist.size(),
        [&dist](JsonWriter &e, std::size_t i) { e.number(dist[i]); });
    w.key("uul");
    writeNumberOrInf(w, src.selector.uul());
    w.key("vBest");
    writeNumberOrInf(w, src.selector.bestScalar());
    w.endObject();

    w.key("trace").cachedArray(
        trace_, result.trace.size(),
        [&result](JsonWriter &e, std::size_t i) {
            writeTracePoint(e, result.trace[i]);
        });
    w.key("version").number(kCheckpointVersion);
    w.key("workloadDigest").string(src.stack.workloadDigest);
    w.endObject();
    return doc_;
}

void
CheckpointWriter::reset()
{
    records_.clear();
    observations_.clear();
    distances_.clear();
    trace_.clear();
}

SearchCheckpoint
checkpointFromJson(const common::Json &doc)
{
    SearchCheckpoint ck;
    ck.version = static_cast<int>(doc.at("version").asInt());
    if (ck.version < 1 || ck.version > 3)
        throw std::runtime_error(
            "checkpoint: unsupported version " +
            std::to_string(ck.version));
    ck.configKey = doc.at("configKey").asString();
    // Stack identity fields are new in version 3; older documents
    // leave them empty (= unknown) and stay resumable.
    ck.backend = doc.has("backend") ? doc.at("backend").asString() : "";
    ck.scenario =
        doc.has("scenario") ? doc.at("scenario").asString() : "";
    ck.workloadDigest = doc.has("workloadDigest")
                            ? doc.at("workloadDigest").asString()
                            : "";
    ck.completedIterations =
        static_cast<int>(doc.at("completedIterations").asInt());
    ck.clockSeconds = doc.at("clockSeconds").asDouble();
    ck.clockEvaluations =
        static_cast<std::uint64_t>(doc.at("clockEvaluations").asInt());
    ck.samplerState = doc.at("sampler");

    const Json &sel = doc.at("selector");
    ck.selector.vBest = parseNumberOrInf(sel.at("vBest"));
    ck.selector.uul = parseNumberOrInf(sel.at("uul"));
    ck.selector.distances.clear();
    const Json &dist = sel.at("distances");
    for (std::size_t i = 0; i < dist.size(); ++i)
        ck.selector.distances.push_back(dist.at(i).asDouble());

    const Json &records = doc.at("records");
    for (std::size_t i = 0; i < records.size(); ++i)
        ck.result.records.push_back(recordFromJson(records.at(i)));

    std::vector<moo::ParetoFront::Entry> entries;
    const Json &front = doc.at("front");
    for (std::size_t i = 0; i < front.size(); ++i) {
        const Json &e = front.at(i);
        entries.push_back(moo::ParetoFront::Entry{
            objectivesFromJson(e.at("objectives")),
            static_cast<std::uint64_t>(e.at("id").asInt())});
    }
    ck.result.front.restore(std::move(entries));

    const Json &trace = doc.at("trace");
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Json &t = trace.at(i);
        TracePoint tp;
        tp.hours = t.at("hours").asDouble();
        const Json &pts = t.at("front");
        for (std::size_t p = 0; p < pts.size(); ++p)
            tp.front.push_back(objectivesFromJson(pts.at(p)));
        ck.result.trace.push_back(std::move(tp));
    }

    ck.result.faults = faultsFromJson(doc.at("faults"));
    return ck;
}

namespace {

constexpr const char *kCrcPrefix = "#crc64:";

/** Directory part of a path ("." when the path has no slash). */
std::string
dirnameOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

std::string
errnoMessage(const std::string &what, const std::string &path)
{
    return what + " '" + path + "': " + std::strerror(errno);
}

/** Write @p bytes to @p path and flush them to stable storage. */
CheckpointIoStatus
writeDurable(const std::string &path, const std::string &bytes)
{
    // O_CLOEXEC: checkpoint descriptors must never leak into fleet
    // worker processes forked while a save is in flight.
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        return CheckpointIoStatus::failure(errnoMessage("open", path));
    if (common::writeFull(fd, bytes) != common::IoStatus::Ok) {
        const auto st =
            CheckpointIoStatus::failure(errnoMessage("write", path));
        ::close(fd);
        return st;
    }
    // fsync before rename: otherwise a power loss can surface the
    // new name with zero-length contents.
    if (::fsync(fd) != 0) {
        const auto st =
            CheckpointIoStatus::failure(errnoMessage("fsync", path));
        ::close(fd);
        return st;
    }
    if (::close(fd) != 0)
        return CheckpointIoStatus::failure(errnoMessage("close", path));
    return CheckpointIoStatus::success();
}

/** Persist the directory entry (rename durability). */
void
syncDirectory(const std::string &dir)
{
    const int dfd =
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd); // best effort: some filesystems refuse dir fsync
        ::close(dfd);
    }
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path);
    return static_cast<bool>(in);
}

} // namespace

std::string
rotatedCheckpointPath(const std::string &path, int n)
{
    return n <= 0 ? path : path + "." + std::to_string(n);
}

CheckpointIoStatus
saveCheckpointFile(const std::string &path, std::string_view document)
{
    std::string body;
    body.reserve(document.size() + 32);
    body.append(document);
    body += "\n";
    const std::uint64_t crc = common::crc64(body);
    body += kCrcPrefix;
    body += common::hexU64(crc);
    body += "\n";

    const std::string tmp = path + ".tmp";
    if (auto st = writeDurable(tmp, body); !st)
        return st;
    // Atomic replace: a kill mid-write leaves the previous checkpoint
    // intact.
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return CheckpointIoStatus::failure(
            errnoMessage("rename", tmp + " -> " + path));
    syncDirectory(dirnameOf(path));
    return CheckpointIoStatus::success();
}

CheckpointIoStatus
saveCheckpointRotated(const std::string &path, std::string_view document,
                      int keep)
{
    // Shift generations oldest-first so every intermediate state
    // keeps each surviving generation under exactly one name; a kill
    // between renames at worst leaves a gap the fallback walk skips.
    for (int n = keep - 2; n >= 0; --n) {
        const std::string from = rotatedCheckpointPath(path, n);
        if (!fileExists(from))
            continue;
        const std::string to = rotatedCheckpointPath(path, n + 1);
        if (std::rename(from.c_str(), to.c_str()) != 0)
            return CheckpointIoStatus::failure(
                errnoMessage("rotate", from + " -> " + to));
    }
    return saveCheckpointFile(path, document);
}

std::optional<SearchCheckpoint>
loadCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string raw = buf.str();

    // The integrity trailer is the last line; everything before it is
    // the checksummed document. A missing trailer means the file was
    // truncated (or predates the trailer format) — reject it rather
    // than trust unverifiable state.
    const auto pos = raw.rfind(kCrcPrefix);
    if (pos == std::string::npos ||
        (pos != 0 && raw[pos - 1] != '\n'))
        throw std::runtime_error("checkpoint '" + path +
                                 "': missing integrity trailer "
                                 "(truncated or legacy file)");
    const std::string body = raw.substr(0, pos);
    std::string hex = raw.substr(pos + std::strlen(kCrcPrefix));
    while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r'))
        hex.pop_back();
    if (hex.empty())
        throw std::runtime_error("checkpoint '" + path +
                                 "': malformed integrity trailer");
    const std::uint64_t expected = common::parseHexU64(hex);
    const std::uint64_t actual = common::crc64(body);
    if (actual != expected)
        throw std::runtime_error(
            "checkpoint '" + path + "': CRC mismatch (stored " + hex +
            ", computed " + common::hexU64(actual) +
            "); file is truncated or corrupt");
    return checkpointFromJson(common::Json::parse(body));
}

std::optional<RecoveredCheckpoint>
loadNewestValidCheckpoint(const std::string &path, int keep)
{
    RecoveredCheckpoint out;
    bool any_exists = false;
    const int window = std::max(keep, 1);
    for (int n = 0; n < window; ++n) {
        const std::string gen = rotatedCheckpointPath(path, n);
        try {
            auto ck = loadCheckpointFile(gen);
            if (!ck.has_value())
                continue; // gap in the window: keep walking
            any_exists = true;
            out.checkpoint = std::move(*ck);
            out.path = gen;
            out.generation = n;
            return out;
        } catch (const std::exception &e) {
            any_exists = true;
            out.rejected.push_back(e.what());
        }
    }
    if (!any_exists)
        return std::nullopt;
    std::string all;
    for (const auto &msg : out.rejected)
        all += "\n  " + msg;
    throw std::runtime_error(
        "no valid checkpoint in the rotation window of '" + path +
        "':" + all);
}

} // namespace unico::core
