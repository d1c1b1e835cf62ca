#include "costmodel/analytical.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "common/math.hh"

namespace unico::costmodel {

using accel::Dataflow;
using accel::Ppa;
using accel::SpatialHwConfig;
using mapping::DimC;
using mapping::DimK;
using mapping::DimN;
using mapping::DimR;
using mapping::DimS;
using mapping::DimX;
using mapping::DimY;
using mapping::kNumDims;
using mapping::Mapping;
using workload::OpKind;
using workload::TensorOp;

namespace {

using Tile = std::array<std::int64_t, kNumDims>;

/** Which loop dims index each operand tensor. */
struct OperandDims
{
    std::array<bool, kNumDims> input{};
    std::array<bool, kNumDims> weight{};
    std::array<bool, kNumDims> output{};
};

OperandDims
operandDims(const TensorOp &op)
{
    OperandDims d;
    const bool depthwise = op.kind == OpKind::DepthwiseConv2D;
    // Input[n, c (or k for depthwise), y+r, x+s]
    d.input[DimN] = true;
    d.input[depthwise ? DimK : DimC] = true;
    d.input[DimY] = d.input[DimX] = true;
    d.input[DimR] = d.input[DimS] = true;
    // Weight[k, c, r, s]
    d.weight[DimK] = d.weight[DimC] = true;
    d.weight[DimR] = d.weight[DimS] = true;
    // Output[n, k, y, x]
    d.output[DimN] = d.output[DimK] = true;
    d.output[DimY] = d.output[DimX] = true;
    return d;
}

/** Bytes of the input-activation tile for given tile extents. */
double
inputTileBytes(const PreparedSpatialQuery &q, const Tile &t)
{
    const double channels = q.depthwise ? static_cast<double>(t[DimK])
                                        : static_cast<double>(t[DimC]);
    const double ih = static_cast<double>((t[DimY] - 1) * q.strideY +
                                          t[DimR]);
    const double iw = static_cast<double>((t[DimX] - 1) * q.strideX +
                                          t[DimS]);
    return 2.0 * static_cast<double>(t[DimN]) * channels * ih * iw;
}

/** Bytes of the weight tile. */
double
weightTileBytes(const Tile &t)
{
    return 2.0 * static_cast<double>(t[DimK]) *
           static_cast<double>(t[DimC]) * static_cast<double>(t[DimR]) *
           static_cast<double>(t[DimS]);
}

/** Bytes of the output tile. */
double
outputTileBytes(const Tile &t)
{
    return 2.0 * static_cast<double>(t[DimN]) *
           static_cast<double>(t[DimK]) * static_cast<double>(t[DimY]) *
           static_cast<double>(t[DimX]);
}

using common::ceilDiv;

/** SRAM access energy (pJ per 16-bit access) as a function of size. */
double
sramAccessPj(double base_pj, double slope_pj, double size_kb)
{
    return base_pj + slope_pj * std::sqrt(std::max(size_kb, 0.03125));
}

} // namespace

double
AnalyticalCostModel::areaMm2(const SpatialHwConfig &hw) const
{
    const double pes = static_cast<double>(hw.pes());
    const double pe_area = tech_.peAreaMm2 * pes;
    const double l1_area = tech_.sramMm2PerKb *
                           (static_cast<double>(hw.l1Bytes) / 1024.0) * pes;
    const double l2_area =
        tech_.sramMm2PerKb * (static_cast<double>(hw.l2Bytes) / 1024.0);
    const double noc_area = tech_.nocAreaMm2PerPeBw * pes *
                            static_cast<double>(hw.nocBandwidth);
    return pe_area + l1_area + l2_area + noc_area;
}

Ppa
AnalyticalCostModel::evaluate(const PreparedSpatialQuery &prep,
                              const Mapping &m) const
{
    const Tile &extents = prep.extents;

    // --- Structural validity -------------------------------------------
    for (int d = 0; d < kNumDims; ++d) {
        if (m.l1Tile[d] < 1 || m.l1Tile[d] > m.l2Tile[d] ||
            m.l2Tile[d] > extents[d])
            return Ppa::infeasible();
    }
    if (m.spatialX == m.spatialY)
        return Ppa::infeasible();

    const bool ws = prep.weightStationary;

    // --- L1 capacity -----------------------------------------------------
    // The stationary operand is single-buffered; streamed operands are
    // double-buffered to overlap NoC transfers with compute.
    const double in1 = inputTileBytes(prep, m.l1Tile);
    const double w1 = weightTileBytes(m.l1Tile);
    const double out1 = outputTileBytes(m.l1Tile);
    const double l1_need = ws ? (w1 + 2.0 * (in1 + out1))
                              : (out1 + 2.0 * (in1 + w1));
    if (l1_need > prep.l1Limit)
        return Ppa::infeasible();

    // --- L2 capacity -----------------------------------------------------
    const double in2 = inputTileBytes(prep, m.l2Tile);
    const double w2 = weightTileBytes(m.l2Tile);
    const double out2 = outputTileBytes(m.l2Tile);
    const double l2_need = out2 + 1.5 * (in2 + w2); // partial dbl-buffer
    if (l2_need > prep.l2Limit)
        return Ppa::infeasible();

    // --- Wave structure inside one L2 tile -------------------------------
    // The PE array consumes the L2 tile in "waves"; along the two
    // spatially unrolled dims each wave covers l1Tile * peN elements.
    Tile cov = m.l1Tile;
    cov[m.spatialX] = std::min<std::int64_t>(
        cov[m.spatialX] * prep.peX, m.l2Tile[m.spatialX]);
    cov[m.spatialY] = std::min<std::int64_t>(
        cov[m.spatialY] * prep.peY, m.l2Tile[m.spatialY]);

    // Wave and tile counts are consumed as doubles only, so divide
    // in double (common::ceilDivDouble, exact for these magnitudes):
    // FP division pipelines where 64-bit integer division does not,
    // and this loop runs once per cold evaluation.
    double waves = 1.0;
    std::array<double, kNumDims> wave_count{};
    for (int d = 0; d < kNumDims; ++d) {
        wave_count[d] = common::ceilDivDouble(m.l2Tile[d], cov[d]);
        waves *= wave_count[d];
    }

    // Average spatial utilization of the PE array.
    const double cap_x = wave_count[m.spatialX] *
                         static_cast<double>(m.l1Tile[m.spatialX]) *
                         static_cast<double>(prep.peX);
    const double cap_y = wave_count[m.spatialY] *
                         static_cast<double>(m.l1Tile[m.spatialY]) *
                         static_cast<double>(prep.peY);
    // Note: under-utilization (cov not dividing the tile) is already
    // penalized through ceil() in wave_count — partially filled waves
    // still cost a full wave of latency.
    [[maybe_unused]] const double util_x =
        static_cast<double>(m.l2Tile[m.spatialX]) / cap_x;
    [[maybe_unused]] const double util_y =
        static_cast<double>(m.l2Tile[m.spatialY]) / cap_y;
    assert(util_x <= 1.0 + 1e-9 && util_y <= 1.0 + 1e-9);

    // Compute cycles of one wave: each PE executes its L1 tile at one
    // MAC per cycle.
    double pe_tile_macs = 1.0;
    for (int d = 0; d < kNumDims; ++d)
        pe_tile_macs *= static_cast<double>(m.l1Tile[d]);

    // --- NoC traffic per wave --------------------------------------------
    // An operand is multicast along a PE axis unless the dim unrolled
    // on that axis indexes it, in which case each PE needs a distinct
    // slice.
    auto wave_bytes = [&](const std::array<bool, kNumDims> &dims,
                          double tile_bytes) {
        double copies = 1.0;
        if (dims[m.spatialX])
            copies *= static_cast<double>(prep.peX);
        if (dims[m.spatialY])
            copies *= static_cast<double>(prep.peY);
        return tile_bytes * copies;
    };
    double noc_in = wave_bytes(prep.inputDims, in1);
    double noc_w = wave_bytes(prep.weightDims, w1);
    double noc_out = wave_bytes(prep.outputDims, out1);

    // Stationarity: the stationary operand is refreshed only when a
    // wave changes its indices; amortize by the number of consecutive
    // waves that reuse it.
    double stationary_reuse = 1.0;
    for (int d = 0; d < kNumDims; ++d) {
        const auto &dims = ws ? prep.weightDims : prep.outputDims;
        if (!dims[d])
            stationary_reuse *= wave_count[d];
    }
    if (ws)
        noc_w /= std::max(stationary_reuse, 1.0);
    else
        noc_out /= std::max(stationary_reuse, 1.0);

    const double noc_bytes_per_wave = noc_in + noc_w + noc_out;
    const double noc_cycles = noc_bytes_per_wave / prep.nocBandwidth;

    // Double buffering overlaps NoC with compute; a wave costs the
    // max of the two plus a small issue overhead.
    const double wave_cycles =
        std::max(pe_tile_macs, noc_cycles) + 4.0;
    const double inner_cycles = waves * wave_cycles +
                                noc_cycles; // initial fill

    // --- DRAM traffic across L2 tiles --------------------------------
    std::array<double, kNumDims> t_count{};
    double l2_tiles = 1.0;
    for (int d = 0; d < kNumDims; ++d) {
        t_count[d] = common::ceilDivDouble(extents[d], m.l2Tile[d]);
        l2_tiles *= t_count[d];
    }

    // Loop-order reuse model: an operand tile is refetched once per
    // iteration of every loop at or outside the innermost loop that
    // indexes it.
    auto fetches = [&](const std::array<bool, kNumDims> &dims) {
        int innermost = -1;
        for (int pos = 0; pos < kNumDims; ++pos)
            if (dims[m.order[pos]])
                innermost = pos;
        double f = 1.0;
        for (int pos = 0; pos <= innermost; ++pos)
            f *= static_cast<double>(t_count[m.order[pos]]);
        return f;
    };
    const double in_fetch = fetches(prep.inputDims);
    const double w_fetch = fetches(prep.weightDims);
    const double out_fetch = fetches(prep.outputDims);

    // Reduction splits force output spill + reload (read and write).
    double reduction_tiles = 1.0;
    for (int d : {DimC, DimR, DimS})
        reduction_tiles *= static_cast<double>(t_count[d]);
    const double out_traffic_factor = reduction_tiles > 1.0 ? 2.0 : 1.0;

    const double dram_bytes = in_fetch * in2 + w_fetch * w2 +
                              out_fetch * out2 * out_traffic_factor;
    const double dram_cycles = dram_bytes / prep.dramBytesPerCycle;

    // --- Latency -------------------------------------------------------
    const double total_inner = l2_tiles * inner_cycles;
    const double cycles = std::max(total_inner, dram_cycles) +
                          dram_cycles * 0.02 + 100.0;
    const double latency_ms = cycles / (prep.clockGhz * 1e6);

    // --- Energy ----------------------------------------------------------
    // The MAC and register-miss L1 terms are mapping-independent and
    // arrive precomputed; the traffic-driven terms are per-candidate.
    const double noc_bytes_total = l2_tiles * waves * noc_bytes_per_wave;
    const double e_noc =
        noc_bytes_total * prep.nocPjPerByteHop * prep.avgHops;
    const double l2_accesses = (noc_bytes_total + dram_bytes) / 2.0;
    const double e_l2 = l2_accesses * prep.l2AccessPj;
    const double e_dram = (dram_bytes / 2.0) * prep.dramPj;
    const double energy_pj = prep.eMac + prep.eL1 + e_noc + e_l2 + e_dram;

    // --- Power and area -------------------------------------------------
    const double latency_ns = cycles / prep.clockGhz;
    // pJ / ns == mW.
    const double dynamic_mw = energy_pj / std::max(latency_ns, 1.0);

    Ppa ppa;
    ppa.latencyMs = latency_ms;
    ppa.powerMw = dynamic_mw + prep.staticMw;
    ppa.areaMm2 = prep.areaMm2;
    ppa.energyMj = energy_pj * 1e-9; // 1 mJ == 1e9 pJ
    ppa.feasible = true;
    return ppa;
}

PreparedSpatialQuery
AnalyticalCostModel::prepare(const TensorOp &op,
                             const SpatialHwConfig &hw) const
{
    PreparedSpatialQuery q;
    q.extents = Tile{op.n, op.k, op.c, op.y, op.x, op.r, op.s};
    const OperandDims od = operandDims(op);
    q.inputDims = od.input;
    q.weightDims = od.weight;
    q.outputDims = od.output;
    q.depthwise = op.kind == OpKind::DepthwiseConv2D;
    q.strideX = op.strideX;
    q.strideY = op.strideY;
    q.weightStationary = hw.dataflow == Dataflow::WeightStationary;
    q.peX = hw.peX;
    q.peY = hw.peY;
    q.l1Limit = static_cast<double>(hw.l1Bytes);
    q.l2Limit = static_cast<double>(hw.l2Bytes);
    q.nocBandwidth = static_cast<double>(hw.nocBandwidth);
    q.dramBytesPerCycle = tech_.dramBytesPerCycle;
    q.clockGhz = tech_.clockGhz;
    q.nocPjPerByteHop = tech_.nocPjPerByteHop;
    q.dramPj = tech_.dramPj;
    q.macs = static_cast<double>(op.macs());
    // Expression trees below replicate the historical evaluate() body
    // exactly so the hoisted terms are bit-identical to the seed.
    const double l1_kb = static_cast<double>(hw.l1Bytes) / 1024.0;
    const double l2_kb = static_cast<double>(hw.l2Bytes) / 1024.0;
    q.eMac = q.macs * tech_.macPj;
    const double l1_accesses = 3.0 * q.macs * (1.0 - tech_.registerReuse);
    q.eL1 = l1_accesses *
            sramAccessPj(tech_.l1BasePj, tech_.l1SlopePj, l1_kb);
    q.l2AccessPj = sramAccessPj(tech_.l2BasePj, tech_.l2SlopePj, l2_kb);
    q.avgHops = 0.25 * static_cast<double>(hw.peX + hw.peY) + 1.0;
    q.areaMm2 = areaMm2(hw);
    q.staticMw = tech_.staticMwPerMm2 * q.areaMm2;
    return q;
}

Ppa
AnalyticalCostModel::evaluate(const TensorOp &op, const SpatialHwConfig &hw,
                              const Mapping &m) const
{
    return evaluate(prepare(op, hw), m);
}

} // namespace unico::costmodel
