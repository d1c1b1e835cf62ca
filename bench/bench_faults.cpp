/**
 * @file
 * Fault-tolerance sweep: runs the UNICO co-search under increasing
 * injected fault rates (transient crashes, hangs, corrupted PPA
 * results, mixed 2:1:1 across the three kinds) and reports how the
 * final normalized hypervolume and search cost degrade relative to
 * the fault-free run at the same seed.
 *
 * Expected shape: the supervisor's retry/degrade/penalty ladder keeps
 * the search alive and the hypervolume within a few percent of the
 * clean run at moderate fault rates (<= 20%), while charged hours
 * grow with the injected rate (retries, backoff and burned deadlines
 * are real search cost).
 */

#include "bench_common.hh"

#include "common/fault.hh"
#include "core/fault_env.hh"
#include "core/fleet.hh"

using namespace unico;

namespace {

/** Normalized hypervolume of a result's final front under shared
 *  bounds. */
double
finalHv(const core::CoSearchResult &result, const moo::Objectives &ideal,
        const moo::Objectives &nadir)
{
    const moo::Objectives ref(ideal.size(), 1.1);
    std::vector<moo::Objectives> pts;
    pts.reserve(result.front.size());
    for (const auto &y : result.front.points())
        pts.push_back(moo::normalizeObjectives(y, ideal, nadir));
    return moo::hypervolume(pts, ref);
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const auto opt = bench::BenchOptions::parse(args);

    const auto env =
        bench::makeBenchEnv(opt, {"resnet"}, accel::Scenario::Edge);
    auto cfg = bench::benchDriverConfig(core::DriverConfig::unico(), opt);
    cfg.realThreads =
        static_cast<std::size_t>(args.getInt("threads", 1));

    struct Sweep
    {
        const char *label;
        double transient, hang, corrupt;
    };
    const Sweep sweeps[] = {
        {"fault-free", 0.0, 0.0, 0.0},
        {"transient 5%", 0.05, 0.0, 0.0},
        {"transient 20%", 0.20, 0.0, 0.0},
        {"hang 5%", 0.0, 0.05, 0.0},
        {"corrupt 10%", 0.0, 0.0, 0.10},
        {"mixed 20%", 0.10, 0.05, 0.05},
    };

    std::vector<core::CoSearchResult> results;
    std::vector<core::InjectionCounts> injected;
    for (const auto &sw : sweeps) {
        common::FaultSpec spec;
        spec.transientRate = sw.transient;
        spec.hangRate = sw.hang;
        spec.corruptRate = sw.corrupt;
        spec.seed = opt.seed + 1000;
        core::FaultyEnv faulty(*env, common::FaultPlan(spec));
        core::CoSearchEnv &run_env =
            spec.active() ? static_cast<core::CoSearchEnv &>(faulty)
                          : *env;
        core::CoOptimizer driver(run_env, cfg);
        results.push_back(driver.run());
        injected.push_back(faulty.injected());
        std::cout << sw.label << ": " << toString(results.back().faults)
                  << "\n";
    }

    // Shared normalization bounds so hypervolumes are comparable.
    moo::Objectives ideal, nadir;
    std::vector<const core::CoSearchResult *> ptrs;
    for (const auto &res : results)
        ptrs.push_back(&res);
    bench::unionBounds(ptrs, ideal, nadir);

    const double hv0 = finalHv(results[0], ideal, nadir);
    std::cout << "\nHypervolume degradation vs injected fault rate "
                 "(UNICO, resnet/edge)\n\n";
    common::TableWriter table({"injection", "injected", "retries",
                               "penalized", "front", "hours", "HV",
                               "HV/HV0"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &res = results[i];
        const double hv = finalHv(res, ideal, nadir);
        table.addRow(
            {sweeps[i].label, std::to_string(injected[i].total()),
             std::to_string(res.faults.retries),
             std::to_string(res.faults.penalized),
             std::to_string(res.front.size()),
             common::TableWriter::num(res.totalHours, 1),
             common::TableWriter::num(hv, 4),
             common::TableWriter::num(hv0 > 0.0 ? hv / hv0 : 0.0, 3)});
    }
    bench::emitTable(table, opt);
    std::cout << "\nExpected: every run completes; HV/HV0 stays near "
                 "1.0 at moderate rates while hours grow with the "
                 "injected load.\n";

    // --- Transport layer: rerun the mixed-injection sweep through
    // the evaluation fleet, with and without worker SIGKILLs. The
    // claim under test is stronger than graceful degradation: the
    // trajectory must be BIT-IDENTICAL to the in-process run above,
    // with the transport ledger absorbing all topology-level faults.
    std::cout << "\nTransport fault absorption (fleet mode, "
                 "mixed 20% injection)\n\n";
    const auto &mixed = results.back(); // in-process mixed-20% run
    struct FleetSweep
    {
        const char *label;
        std::size_t workers;
        int kills;
    };
    const FleetSweep fleet_sweeps[] = {
        {"2 workers", 2, 0},
        {"4 workers", 4, 0},
        {"4 workers + 6 kills", 4, 6},
    };
    common::TableWriter ftable({"fleet", "crashes", "respawns",
                                "steals", "local", "identical"});
    for (const auto &sw : fleet_sweeps) {
        common::FaultSpec spec;
        spec.transientRate = 0.10;
        spec.hangRate = 0.05;
        spec.corruptRate = 0.05;
        spec.seed = opt.seed + 1000;
        core::FaultyEnv faulty(*env, common::FaultPlan(spec));
        core::FleetConfig fc;
        fc.workers = sw.workers;
        fc.chaosKills = sw.kills;
        core::FleetEnv fleet(faulty, fc);
        core::CoOptimizer driver(fleet, cfg);
        const auto res = driver.run();
        const auto ts = fleet.transportStats();
        bool identical = res.records.size() == mixed.records.size() &&
                         res.totalHours == mixed.totalHours &&
                         res.evaluations == mixed.evaluations;
        for (std::size_t i = 0;
             identical && i < res.records.size(); ++i)
            identical = res.records[i].hw == mixed.records[i].hw &&
                        res.records[i].ppa.latencyMs ==
                            mixed.records[i].ppa.latencyMs &&
                        res.records[i].budgetSpent ==
                            mixed.records[i].budgetSpent;
        ftable.addRow({sw.label, std::to_string(ts.workerCrashes),
                       std::to_string(ts.workerRespawns),
                       std::to_string(ts.workSteals),
                       std::to_string(ts.inprocFallbacks),
                       identical ? "yes" : "NO"});
    }
    ftable.print(std::cout);
    std::cout << "\nExpected: every fleet row is identical=yes — "
                 "worker kills cost respawns, never results.\n";
    return 0;
}
