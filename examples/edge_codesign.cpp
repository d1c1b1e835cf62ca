/**
 * @file
 * Edge co-design scenario: find one accelerator configuration that
 * serves a *family* of edge workloads (MobileNetV2 + EfficientNetV2
 * + FSRCNN super-resolution) under the 2 W envelope, comparing UNICO
 * against a HASCO-style full-budget co-search, then stress-testing
 * both winners on an unseen workload (ConvNeXt).
 *
 * Usage: edge_codesign [--seed S] [--scale X]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "core/driver.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;

namespace {

core::DriverConfig
scaled(core::DriverConfig cfg, double scale, std::uint64_t seed)
{
    cfg.batchSize = std::max(static_cast<int>(16 * scale), 6);
    cfg.maxIter = std::max(static_cast<int>(8 * scale), 3);
    cfg.sh.bMax = std::max(static_cast<int>(200 * scale), 32);
    cfg.seed = seed;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    common::CliArgs args(argc, argv);
    const double scale = args.getDouble("scale", 1.0);
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 3));

    // The product requirement: one chip, three workloads, < 2 W.
    std::vector<workload::Network> family;
    family.push_back(workload::makeMobileNetV2());
    family.push_back(workload::makeEfficientNetV2());
    family.push_back(workload::makeFsrcnn(120, 320));

    core::BackendOptions env_opt;
    env_opt.scenario = accel::Scenario::Edge;
    env_opt.maxShapesPerNetwork = 4;
    core::SpatialEnv env(std::move(family), env_opt);

    std::cout << "Edge co-design for {mobilenet_v2, efficientnet_v2, "
                 "fsrcnn_120x320}, power < 2 W\n"
              << env.layers().size() << " dominant layer shapes, HW "
              << "space " << env.hwSpace().cardinality() << "\n\n";

    core::CoOptimizer unico(env, scaled(core::DriverConfig::unico(),
                                        scale, seed));
    const auto unico_result = unico.run();
    core::CoOptimizer hasco(env, scaled(core::DriverConfig::hascoLike(),
                                        scale, seed));
    const auto hasco_result = hasco.run();

    common::TableWriter table({"method", "hw", "L(ms)", "P(mW)",
                               "A(mm2)", "cost(h)"});
    struct Pick
    {
        const char *method;
        const core::CoSearchResult *result;
        accel::HwPoint hw;
    };
    std::vector<Pick> picks;
    for (const auto &[name, res] :
         {std::pair<const char *, const core::CoSearchResult *>{
              "UNICO", &unico_result},
          {"HASCO", &hasco_result}}) {
        if (res->front.empty()) {
            table.addRow({name, "(no feasible design)", "-", "-", "-",
                          common::TableWriter::num(res->totalHours, 2)});
            continue;
        }
        const auto &rec = res->records[res->minDistanceRecord()];
        picks.push_back(Pick{name, res, rec.hw});
        table.addRow({name, env.describeHw(rec.hw),
                      common::TableWriter::num(rec.ppa.latencyMs),
                      common::TableWriter::num(rec.ppa.powerMw, 1),
                      common::TableWriter::num(rec.ppa.areaMm2, 2),
                      common::TableWriter::num(res->totalHours, 2)});
    }
    std::cout << "co-design result (min-distance Pareto design):\n";
    table.print(std::cout);

    // Deployment twist: a new workload arrives after tape-out.
    std::cout << "\nunseen workload check (convnext):\n";
    core::BackendOptions val_opt;
    val_opt.scenario = accel::Scenario::Edge;
    val_opt.maxShapesPerNetwork = 4;
    core::SpatialEnv val_env({workload::makeConvNeXt()}, val_opt);
    common::TableWriter val_table({"method", "convnext L(ms)",
                                   "P(mW)"});
    for (const auto &pick : picks) {
        auto run = val_env.createRun(pick.hw, seed + 99);
        run->step(std::max(static_cast<int>(150 * scale), 32));
        const auto ppa = run->bestPpa();
        val_table.addRow({pick.method,
                          ppa.feasible
                              ? common::TableWriter::num(ppa.latencyMs)
                              : "infeasible",
                          ppa.feasible
                              ? common::TableWriter::num(ppa.powerMw, 1)
                              : "-"});
    }
    val_table.print(std::cout);
    return 0;
}
