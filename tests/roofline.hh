/**
 * @file
 * Roofline oracle for the cost-model tests: per-layer compute/traffic
 * classification and the lower bound on a network's cycles on a
 * machine with a given peak compute and DRAM bandwidth. It assumes no
 * on-chip reuse beyond each operator's intrinsic reuse, so no mapping
 * the cost models find can beat it.
 */

#ifndef UNICO_TESTS_ROOFLINE_HH
#define UNICO_TESTS_ROOFLINE_HH

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "workload/network.hh"

namespace unico::oracle {

/** Roofline classification of one operator on a machine model. */
struct RooflinePoint
{
    std::string layer;
    double intensity = 0.0; ///< MACs per byte
    double attainableMacsPerCycle = 0.0;
    bool memoryBound = false;
};

/** Roofline point of every layer of @p net on a machine with
 *  @p peak_macs_per_cycle compute and @p bytes_per_cycle DRAM
 *  bandwidth. */
inline std::vector<RooflinePoint>
roofline(const workload::Network &net, double peak_macs_per_cycle,
         double bytes_per_cycle)
{
    assert(peak_macs_per_cycle > 0.0 && bytes_per_cycle > 0.0);
    std::vector<RooflinePoint> out;
    const double ridge = peak_macs_per_cycle / bytes_per_cycle;
    for (const auto &op : net.ops()) {
        RooflinePoint pt;
        pt.layer = op.name;
        pt.intensity = op.arithmeticIntensity();
        pt.memoryBound = pt.intensity < ridge;
        pt.attainableMacsPerCycle =
            pt.memoryBound ? pt.intensity * bytes_per_cycle
                           : peak_macs_per_cycle;
        out.push_back(std::move(pt));
    }
    return out;
}

/** Lower-bound cycles of @p net on the machine model: the sum over
 *  layers of max(compute cycles, traffic cycles). */
inline double
rooflineCycles(const workload::Network &net, double peak_macs_per_cycle,
               double bytes_per_cycle)
{
    const auto points = roofline(net, peak_macs_per_cycle, bytes_per_cycle);
    double cycles = 0.0;
    for (std::size_t i = 0; i < net.size(); ++i) {
        const auto macs = static_cast<double>(net.ops()[i].macs());
        cycles += macs / std::max(points[i].attainableMacsPerCycle, 1e-12);
    }
    return cycles;
}

} // namespace unico::oracle

#endif // UNICO_TESTS_ROOFLINE_HH
