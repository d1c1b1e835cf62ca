/**
 * @file
 * Industrial scenario (Sec. 4.6): tune the Ascend-like cube core for
 * a super-resolution workload against the cycle-level simulator and
 * compare the discovered configuration with the expert default.
 * Every simulator query charges minutes of virtual search time, so
 * this example also demonstrates the EvalClock cost ledger.
 *
 * Usage: ascend_tuning [--seed S] [--scale X] [--net NAME]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "core/ascend_env.hh"
#include "core/driver.hh"
#include "workload/model_zoo.hh"

using namespace unico;

int
main(int argc, char **argv)
{
    common::CliArgs args(argc, argv);
    const double scale = args.getDouble("scale", 1.0);
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 5));
    const std::string net = args.getString("net", "fsrcnn_120x320");

    core::BackendOptions env_opt;
    env_opt.maxShapesPerNetwork = 3;
    core::AscendEnv env({workload::makeNetwork(net)}, env_opt);

    std::cout << "Ascend-like tuning for " << net << " (area <= "
              << env.areaBudgetMm2() << " mm2)\nHW space: "
              << env.hwSpace().cardinality()
              << " configurations; PPA engine: cycle-level simulator\n\n";

    core::DriverConfig cfg = core::DriverConfig::unico();
    cfg.batchSize = 10;
    cfg.maxIter = std::max(static_cast<int>(10 * scale), 3);
    cfg.sh.bMax = std::max(static_cast<int>(64 * scale), 16);
    cfg.minBudgetPerRound = 6;
    cfg.seed = seed;
    core::CoOptimizer driver(env, cfg);
    const auto result = driver.run();

    const auto default_hw = env.ascendSpace().encodeDefault();
    const accel::Ppa def =
        env.evaluateConfig(default_hw, cfg.sh.bMax, seed + 1);

    std::cout << "search cost: " << result.totalHours
              << " virtual hours for " << result.records.size()
              << " HW samples\n\n";

    common::TableWriter table(
        {"variant", "hw", "L(ms)", "P(mW)", "A(mm2)", "R"});
    table.addRow({"expert default", env.describeHw(default_hw),
                  common::TableWriter::num(def.latencyMs),
                  common::TableWriter::num(def.powerMw, 1),
                  common::TableWriter::num(def.areaMm2, 1), "-"});
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        if (!rec.fullySearched)
            continue;
        table.addRow({"UNICO pareto", env.describeHw(rec.hw),
                      common::TableWriter::num(rec.ppa.latencyMs),
                      common::TableWriter::num(rec.ppa.powerMw, 1),
                      common::TableWriter::num(rec.ppa.areaMm2, 1),
                      common::TableWriter::num(rec.sensitivity, 2)});
    }
    table.print(std::cout);

    if (!result.front.empty()) {
        const auto &rec = result.records[result.minDistanceRecord()];
        std::cout << "\nrecommended configuration: "
                  << env.describeHw(rec.hw) << "\n  latency "
                  << rec.ppa.latencyMs << " ms ("
                  << (def.latencyMs - rec.ppa.latencyMs) / def.latencyMs *
                         100.0
                  << "% vs default), power " << rec.ppa.powerMw
                  << " mW ("
                  << (def.powerMw - rec.ppa.powerMw) / def.powerMw * 100.0
                  << "% vs default)\n";
    }
    return 0;
}
