#include "core/report.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/table.hh"

namespace unico::core {

SearchSummary
summarize(const CoSearchResult &result)
{
    SearchSummary s;
    s.samples = result.records.size();
    s.frontSize = result.front.size();
    s.totalHours = result.totalHours;
    s.evaluations = result.evaluations;
    s.bestLatencyMs = std::numeric_limits<double>::infinity();
    s.bestPowerMw = std::numeric_limits<double>::infinity();
    s.bestAreaMm2 = std::numeric_limits<double>::infinity();
    double r_acc = 0.0;
    std::size_t r_count = 0;
    for (const auto &rec : result.records) {
        if (rec.ppa.feasible) {
            ++s.feasible;
            r_acc += rec.sensitivity;
            ++r_count;
        }
        if (rec.fullySearched)
            ++s.fullySearched;
        if (rec.constraintOk) {
            ++s.constraintOk;
            s.bestLatencyMs = std::min(s.bestLatencyMs,
                                       rec.ppa.latencyMs);
            s.bestPowerMw = std::min(s.bestPowerMw, rec.ppa.powerMw);
            s.bestAreaMm2 = std::min(s.bestAreaMm2, rec.ppa.areaMm2);
        }
    }
    if (s.constraintOk == 0) {
        s.bestLatencyMs = 0.0;
        s.bestPowerMw = 0.0;
        s.bestAreaMm2 = 0.0;
    }
    if (r_count > 0)
        s.meanSensitivity = r_acc / static_cast<double>(r_count);
    return s;
}

std::string
toString(const SearchSummary &s)
{
    std::ostringstream oss;
    oss << "samples=" << s.samples << " feasible=" << s.feasible
        << " constraint_ok=" << s.constraintOk << " front="
        << s.frontSize << " fully_searched=" << s.fullySearched
        << "\ncost=" << s.totalHours << "h budget=" << s.evaluations
        << " best: L=" << s.bestLatencyMs << "ms P=" << s.bestPowerMw
        << "mW A=" << s.bestAreaMm2 << "mm2 meanR="
        << s.meanSensitivity;
    return oss.str();
}

bool
writeRecordsCsv(const CoSearchResult &result, const CoSearchEnv &env,
                const std::string &path)
{
    common::TableWriter table({"iteration", "hw", "latency_ms",
                               "power_mw", "area_mm2", "sensitivity",
                               "budget", "constraint_ok",
                               "fully_searched", "high_fidelity",
                               "faults", "degraded", "penalized"});
    for (const auto &rec : result.records) {
        table.addRow(
            {std::to_string(rec.iteration), env.describeHw(rec.hw),
             common::TableWriter::num(rec.ppa.latencyMs, 6),
             common::TableWriter::num(rec.ppa.powerMw, 4),
             common::TableWriter::num(rec.ppa.areaMm2, 4),
             common::TableWriter::num(rec.sensitivity, 4),
             std::to_string(rec.budgetSpent),
             rec.constraintOk ? "1" : "0",
             rec.fullySearched ? "1" : "0",
             rec.highFidelity ? "1" : "0",
             std::to_string(rec.faults),
             rec.degraded ? "1" : "0",
             rec.penalized ? "1" : "0"});
    }
    return table.writeCsv(path);
}

bool
writeFrontCsv(const CoSearchResult &result, const CoSearchEnv &env,
              const std::string &path)
{
    common::TableWriter table(
        {"hw", "latency_ms", "power_mw", "area_mm2"});
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        table.addRow({env.describeHw(rec.hw),
                      common::TableWriter::num(rec.ppa.latencyMs, 6),
                      common::TableWriter::num(rec.ppa.powerMw, 4),
                      common::TableWriter::num(rec.ppa.areaMm2, 4)});
    }
    return table.writeCsv(path);
}

bool
writeTraceCsv(const CoSearchResult &result, const std::string &path)
{
    common::TableWriter table(
        {"hours", "front_size", "best_latency_ms", "best_power_mw"});
    for (const auto &tp : result.trace) {
        double best_lat = 0.0, best_pow = 0.0;
        if (!tp.front.empty()) {
            best_lat = std::numeric_limits<double>::infinity();
            best_pow = std::numeric_limits<double>::infinity();
            for (const auto &y : tp.front) {
                best_lat = std::min(best_lat, y[0]);
                best_pow = std::min(best_pow, y[1]);
            }
        }
        table.addRow({common::TableWriter::num(tp.hours, 4),
                      std::to_string(tp.front.size()),
                      common::TableWriter::num(best_lat, 6),
                      common::TableWriter::num(best_pow, 4)});
    }
    return table.writeCsv(path);
}

bool
writeCacheCsv(const CoSearchResult &result, const std::string &path)
{
    const common::CacheStats &cs = result.cacheStats;
    // shard_evictions is a |-separated per-shard list so the CSV
    // stays one row regardless of the stripe count.
    std::string shard_evictions;
    for (std::size_t i = 0; i < cs.shardEvictions.size(); ++i) {
        if (i > 0)
            shard_evictions += '|';
        shard_evictions += std::to_string(cs.shardEvictions[i]);
    }
    common::TableWriter table(
        {"hits", "misses", "hit_rate", "insertions", "evictions",
         "entries", "bytes", "capacity_bytes", "shards",
         "shard_evictions"});
    table.addRow({std::to_string(cs.hits), std::to_string(cs.misses),
                  common::TableWriter::num(cs.hitRate(), 4),
                  std::to_string(cs.insertions),
                  std::to_string(cs.evictions),
                  std::to_string(cs.entries), std::to_string(cs.bytes),
                  std::to_string(cs.capacityBytes),
                  std::to_string(cs.shards), shard_evictions});
    return table.writeCsv(path);
}

bool
writeFaultsCsv(const CoSearchResult &result, const std::string &path)
{
    const FaultStats &f = result.faults;
    const common::TransportStats &t = f.transport;
    common::TableWriter table(
        {"transient", "timeout", "corrupt", "fatal", "retries",
         "degradations", "penalized", "gp_fallbacks", "ckpt_recoveries",
         "worker_crashes", "request_timeouts", "worker_hangs",
         "torn_frames", "corrupt_frames", "worker_respawns",
         "work_steals", "inproc_fallbacks", "request_round_trips",
         "ops_applied", "connections_lost", "connect_failures",
         "stale_frames", "reconnects", "heartbeats"});
    table.addRow({std::to_string(f.transient), std::to_string(f.timeout),
                  std::to_string(f.corrupt), std::to_string(f.fatal),
                  std::to_string(f.retries),
                  std::to_string(f.degradations),
                  std::to_string(f.penalized),
                  std::to_string(f.gpFallbacks),
                  std::to_string(f.checkpointRecoveries),
                  std::to_string(t.workerCrashes),
                  std::to_string(t.requestTimeouts),
                  std::to_string(t.workerHangs),
                  std::to_string(t.tornFrames),
                  std::to_string(t.corruptFrames),
                  std::to_string(t.workerRespawns),
                  std::to_string(t.workSteals),
                  std::to_string(t.inprocFallbacks),
                  std::to_string(t.requestRoundTrips),
                  std::to_string(t.opsApplied),
                  std::to_string(t.connectionsLost),
                  std::to_string(t.connectFailures),
                  std::to_string(t.staleFrames),
                  std::to_string(t.reconnects),
                  std::to_string(t.heartbeats)});
    return table.writeCsv(path);
}

} // namespace unico::core
