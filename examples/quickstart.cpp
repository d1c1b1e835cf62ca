/**
 * @file
 * Quickstart: co-optimize a spatial accelerator for MobileNet under
 * the edge power envelope with UNICO, then print the Pareto front
 * and the min-Euclidean-distance design.
 *
 * Usage: quickstart [--seed S] [--iters I] [--batch N] [--bmax B]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "core/driver.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

int
main(int argc, char **argv)
{
    using namespace unico;
    common::CliArgs args(argc, argv);

    // 1. Pick the workload(s) to co-optimize for.
    std::vector<workload::Network> nets;
    nets.push_back(workload::makeMobileNet());

    // 2. Build the co-search environment: spatial HW template (edge
    //    scenario), annealing mapping search, analytical PPA model.
    core::BackendOptions env_opt;
    env_opt.scenario = accel::Scenario::Edge;
    env_opt.engine = mapping::EngineKind::Annealing;
    env_opt.maxShapesPerNetwork = 4;
    core::SpatialEnv env(std::move(nets), env_opt);

    std::cout << "HW design space: " << env.hwSpace().cardinality()
              << " configurations, " << env.hwSpace().dims()
              << " axes\n";
    std::cout << "Workload: mobilenet, " << env.layers().size()
              << " dominant layer shapes\n\n";

    // 3. Configure and run UNICO (Algorithm 1).
    core::DriverConfig cfg = core::DriverConfig::unico();
    cfg.batchSize = static_cast<int>(args.getInt("batch", 12));
    cfg.maxIter = static_cast<int>(args.getInt("iters", 4));
    cfg.sh.bMax = static_cast<int>(args.getInt("bmax", 120));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 7));
    core::CoOptimizer optimizer(env, cfg);
    const core::CoSearchResult result = optimizer.run();

    // 4. Report the Pareto front.
    std::cout << "Evaluated " << result.records.size()
              << " hardware configurations in " << result.totalHours
              << " virtual hours (" << result.evaluations
              << " PPA queries)\n\n";

    common::TableWriter table(
        {"hw", "latency(ms)", "power(mW)", "area(mm2)", "R"});
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        table.addRow({env.describeHw(rec.hw),
                      common::TableWriter::num(rec.ppa.latencyMs),
                      common::TableWriter::num(rec.ppa.powerMw, 1),
                      common::TableWriter::num(rec.ppa.areaMm2, 2),
                      common::TableWriter::num(rec.sensitivity, 3)});
    }
    std::cout << "Pareto front (" << result.front.size()
              << " designs):\n";
    table.print(std::cout);

    if (!result.front.empty()) {
        const auto &best =
            result.records[result.minDistanceRecord()];
        std::cout << "\nMin-distance design: "
                  << env.describeHw(best.hw) << "\n  latency "
                  << best.ppa.latencyMs << " ms, power "
                  << best.ppa.powerMw << " mW, area "
                  << best.ppa.areaMm2 << " mm2\n";
    }
    return 0;
}
