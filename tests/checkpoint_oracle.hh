/**
 * @file
 * DOM oracle for the checkpoint tests: a SearchCheckpoint built into a
 * common::Json document member by member and printed with dump(2).
 * core::CheckpointWriter streams the same document without a DOM and
 * must print this text byte for byte.
 */

#ifndef UNICO_TESTS_CHECKPOINT_ORACLE_HH
#define UNICO_TESTS_CHECKPOINT_ORACLE_HH

#include <limits>
#include <string>
#include <utility>

#include "common/json.hh"
#include "core/checkpoint.hh"

namespace unico::oracle {

/** Infinity-safe double encoding (JSON has no Inf literal). */
inline common::Json
numberOrInf(double v)
{
    if (v == std::numeric_limits<double>::infinity())
        return common::Json("inf");
    if (v == -std::numeric_limits<double>::infinity())
        return common::Json("-inf");
    return common::Json(v);
}

inline common::Json
objectivesToJson(const moo::Objectives &y)
{
    common::Json arr = common::Json::array();
    for (double v : y)
        arr.push(v);
    return arr;
}

inline common::Json
recordToJson(const core::HwEvalRecord &rec)
{
    common::Json j = common::Json::object();
    common::Json hw = common::Json::array();
    for (std::size_t axis : rec.hw)
        hw.push(axis);
    j["hw"] = std::move(hw);
    j["latencyMs"] = rec.ppa.latencyMs;
    j["powerMw"] = rec.ppa.powerMw;
    j["areaMm2"] = rec.ppa.areaMm2;
    j["energyMj"] = rec.ppa.energyMj;
    j["feasible"] = rec.ppa.feasible;
    j["sensitivity"] = rec.sensitivity;
    j["budgetSpent"] = rec.budgetSpent;
    j["constraintOk"] = rec.constraintOk;
    j["fullySearched"] = rec.fullySearched;
    j["highFidelity"] = rec.highFidelity;
    j["iteration"] = rec.iteration;
    j["faults"] = rec.faults;
    j["degraded"] = rec.degraded;
    j["penalized"] = rec.penalized;
    return j;
}

inline common::Json
faultsToJson(const core::FaultStats &f)
{
    common::Json j = common::Json::object();
    j["transient"] = static_cast<std::size_t>(f.transient);
    j["timeout"] = static_cast<std::size_t>(f.timeout);
    j["corrupt"] = static_cast<std::size_t>(f.corrupt);
    j["fatal"] = static_cast<std::size_t>(f.fatal);
    j["retries"] = static_cast<std::size_t>(f.retries);
    j["degradations"] = static_cast<std::size_t>(f.degradations);
    j["penalized"] = static_cast<std::size_t>(f.penalized);
    j["gpFallbacks"] = static_cast<std::size_t>(f.gpFallbacks);
    j["checkpointRecoveries"] =
        static_cast<std::size_t>(f.checkpointRecoveries);
    return j;
}

/** The checkpoint document of @p ck as a DOM. */
inline common::Json
toJson(const core::SearchCheckpoint &ck)
{
    common::Json doc = common::Json::object();
    doc["version"] = ck.version;
    doc["configKey"] = ck.configKey;
    doc["backend"] = ck.backend;
    doc["scenario"] = ck.scenario;
    doc["workloadDigest"] = ck.workloadDigest;
    doc["completedIterations"] = ck.completedIterations;
    doc["clockSeconds"] = ck.clockSeconds;
    doc["clockEvaluations"] =
        static_cast<std::size_t>(ck.clockEvaluations);
    doc["sampler"] = ck.samplerState;

    common::Json sel = common::Json::object();
    sel["vBest"] = numberOrInf(ck.selector.vBest);
    sel["uul"] = numberOrInf(ck.selector.uul);
    common::Json dist = common::Json::array();
    for (double d : ck.selector.distances)
        dist.push(d);
    sel["distances"] = std::move(dist);
    doc["selector"] = std::move(sel);

    common::Json records = common::Json::array();
    for (const auto &rec : ck.result.records)
        records.push(recordToJson(rec));
    doc["records"] = std::move(records);

    common::Json front = common::Json::array();
    for (const auto &entry : ck.result.front.entries()) {
        common::Json e = common::Json::object();
        e["objectives"] = objectivesToJson(entry.objectives);
        e["id"] = static_cast<std::size_t>(entry.id);
        front.push(std::move(e));
    }
    doc["front"] = std::move(front);

    common::Json trace = common::Json::array();
    for (const auto &tp : ck.result.trace) {
        common::Json t = common::Json::object();
        t["hours"] = tp.hours;
        common::Json pts = common::Json::array();
        for (const auto &y : tp.front)
            pts.push(objectivesToJson(y));
        t["front"] = std::move(pts);
        trace.push(std::move(t));
    }
    doc["trace"] = std::move(trace);

    doc["faults"] = faultsToJson(ck.result.faults);
    return doc;
}

/** The document text saveCheckpointFile() takes, for @p ck. */
inline std::string
checkpointDocument(const core::SearchCheckpoint &ck)
{
    return toJson(ck).dump(2);
}

} // namespace unico::oracle

#endif // UNICO_TESTS_CHECKPOINT_ORACLE_HH
