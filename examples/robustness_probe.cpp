/**
 * @file
 * Robustness-metric walkthrough: compute R (Eq. 2) for a handful of
 * hardware configurations on a training workload, then show how R
 * predicts the latency penalty those configurations suffer when the
 * SW mapping search budget is cut — the mechanism behind Secs.
 * 3.4/4.3.
 *
 * Usage: robustness_probe [--seed S] [--hw-samples N]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/statistics.hh"
#include "common/table.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;

int
main(int argc, char **argv)
{
    common::CliArgs args(argc, argv);
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    const auto hw_samples =
        static_cast<std::size_t>(args.getInt("hw-samples", 10));

    core::BackendOptions env_opt;
    env_opt.maxShapesPerNetwork = 4;
    core::SpatialEnv train({workload::makeSrgan()}, env_opt);
    core::SpatialEnv deploy({workload::makeMobileNetV2()}, env_opt);

    std::cout << "R (Eq. 2) on srgan vs budget-limited latency penalty "
                 "on mobilenet_v2\n\n";

    common::TableWriter table({"hw", "R (train)", "L limited (ms)",
                               "L converged (ms)", "penalty"});
    common::Rng rng(seed);
    std::vector<double> r_values, penalties;
    while (r_values.size() < hw_samples) {
        const auto hw = train.hwSpace().randomPoint(rng);
        auto train_run = train.createRun(hw, seed + 7);
        train_run->step(200);
        if (!train_run->bestPpa().feasible)
            continue;
        const double r = train_run->sensitivity(0.05);

        auto limited = deploy.createRun(hw, seed + 11);
        limited->step(40);
        auto converged = deploy.createRun(hw, seed + 11);
        converged->step(400);
        if (!limited->bestPpa().feasible ||
            !converged->bestPpa().feasible)
            continue;
        const double lat_limited = limited->bestPpa().latencyMs;
        const double lat_converged = converged->bestPpa().latencyMs;
        const double penalty = lat_limited / lat_converged;

        r_values.push_back(r);
        penalties.push_back(penalty);
        table.addRow({train.describeHw(hw),
                      common::TableWriter::num(r, 3),
                      common::TableWriter::num(lat_limited),
                      common::TableWriter::num(lat_converged),
                      common::TableWriter::num(penalty, 2) + "x"});
    }
    table.print(std::cout);

    std::cout << "\nspearman(R, penalty) = "
              << common::TableWriter::num(
                     common::spearman(r_values, penalties), 3)
              << "  (positive: robust designs need less mapping-search "
                 "budget on new workloads)\n";
    return 0;
}
