/**
 * @file
 * Per-tile reference of the cycle-level cube model: one evaluation
 * that walks the tile pipeline L1 tile by L1 tile and L0 tile by L0
 * tile, adding each tile's cycles, bytes and busy counters as it
 * goes. camodel::CycleAccurateModel::evaluate() computes the same
 * sums in closed form (common::repeatAdd / periodicAdd) and must
 * return this PPA and every SimStats counter bit for bit. The tile
 * addends and the energy model below keep the production expression
 * trees; only the accumulation differs.
 */

#ifndef UNICO_TESTS_CUBE_TILE_ORACLE_HH
#define UNICO_TESTS_CUBE_TILE_ORACLE_HH

#include <algorithm>
#include <cstdint>

#include "accel/ppa.hh"
#include "camodel/simulator.hh"
#include "common/math.hh"

namespace unico::oracle {

/** Cycles to move @p bytes through an L0 bank group port array. */
inline double
l0MoveCycles(double bytes, std::int64_t banks, double port_bytes)
{
    const double bw = port_bytes * static_cast<double>(banks);
    const double base = bytes / bw;
    const double conflict = banks <= 1 ? 1.25 : (banks == 2 ? 1.08 : 1.0);
    return base * conflict;
}

/** @p model's evaluate(@p prep, @p m, @p stats_out), tile by tile. */
inline accel::Ppa
evaluateCubeTiles(const camodel::CycleAccurateModel &model,
                  const camodel::PreparedCubeQuery &prep,
                  const camodel::CubeMapping &m,
                  camodel::SimStats *stats_out = nullptr)
{
    using common::ceilDiv;
    const camodel::CubeTech &tech = model.tech();
    const camodel::GemmShape &g = prep.g;
    camodel::SimStats st;

    // Buffer feasibility.
    const double a0_bytes = 2.0 * static_cast<double>(m.m0 * m.k0);
    const double b0_bytes = 2.0 * static_cast<double>(m.k0 * m.n0);
    const double c0_bytes = 4.0 * static_cast<double>(m.m0 * m.n0);
    if (a0_bytes * (m.doubleBufferA ? 2.0 : 1.0) > prep.l0aLimit ||
        b0_bytes * (m.doubleBufferB ? 2.0 : 1.0) > prep.l0bLimit ||
        c0_bytes > prep.l0cLimit)
        return accel::Ppa::infeasible();
    const double a1_bytes = 2.0 * static_cast<double>(m.m1 * m.k1);
    const double b1_bytes = 2.0 * static_cast<double>(m.k1 * m.n1);
    const double out1_bytes = 2.0 * static_cast<double>(m.m1 * m.n1);
    const double l1_need = 2.0 * (a1_bytes + b1_bytes) +
                           (m.fuseVector ? 0.0 : out1_bytes);
    if (l1_need > prep.l1Limit)
        return accel::Ppa::infeasible();
    const double ub_slab = 2.0 * static_cast<double>(m.m0 * m.n1);
    if (ub_slab * 2.0 > prep.ubLimit)
        return accel::Ppa::infeasible();

    // Static per-tile costs.
    const double cube_issues =
        static_cast<double>(ceilDiv(m.m0, prep.cubeM)) *
        static_cast<double>(ceilDiv(m.n0, prep.cubeN)) *
        static_cast<double>(ceilDiv(m.k0, prep.cubeK));
    const double cube_cycles = cube_issues + tech.cubePipelineDepth;
    const double load_a0 =
        l0MoveCycles(a0_bytes, prep.l0aBanks, tech.l0PortBytesPerCycle);
    const double load_b0 =
        l0MoveCycles(b0_bytes, prep.l0bBanks, tech.l0PortBytesPerCycle);
    const double drain_c0 =
        l0MoveCycles(c0_bytes, prep.l0cBanks, tech.l0PortBytesPerCycle);
    const double prog_bytes = 12.0 * 1024.0 + (m.fuseVector ? 9216.0 : 0.0)
                              + (m.doubleBufferA ? 2048.0 : 0.0)
                              + (m.doubleBufferB ? 2048.0 : 0.0);
    const double icache_miss_bytes =
        std::max(0.0, prog_bytes - prep.icacheLimit);
    const double icache_stall = icache_miss_bytes / 32.0;

    // Tile loop.
    const std::int64_t tm1 = ceilDiv(g.m, m.m1);
    const std::int64_t tn1 = ceilDiv(g.n, m.n1);
    const std::int64_t tk1 = ceilDiv(g.k, m.k1);
    const std::int64_t tm0 = ceilDiv(m.m1, m.m0);
    const std::int64_t tn0 = ceilDiv(m.n1, m.n0);
    const std::int64_t tk0 = ceilDiv(m.k1, m.k0);
    const std::int64_t l1_tiles = tm1 * tn1 * tk1;
    const std::int64_t l0_per_l1 = tm0 * tn0 * tk0;
    std::int64_t sim_l1_tiles = l1_tiles;
    if (l1_tiles * l0_per_l1 > tech.maxSimulatedTiles) {
        sim_l1_tiles = std::max<std::int64_t>(
            1, tech.maxSimulatedTiles / std::max<std::int64_t>(
                   l0_per_l1, 1));
        st.extrapolated = true;
    }

    double cycles = 0.0;
    std::int64_t simulated_l1 = 0;
    for (std::int64_t t1 = 0; t1 < sim_l1_tiles; ++t1) {
        ++simulated_l1;
        // DRAM -> L1 fill of the A and B tiles, double buffered at L1.
        const double fill_cycles =
            (a1_bytes + b1_bytes) / tech.dramBytesPerCycle;

        // Inner L0 pipeline: ping-pong lets the next load run under
        // the cube; a tile costs max(cube, overlapped load) plus any
        // serialized (single-buffered) load.
        double inner = 0.0;
        const double pending_load = load_a0 + load_b0; // first preload
        for (std::int64_t i0 = 0; i0 < l0_per_l1; ++i0) {
            const double load = (m.doubleBufferA ? 0.0 : load_a0) +
                                (m.doubleBufferB ? 0.0 : load_b0);
            const double overlapped = (m.doubleBufferA ? load_a0 : 0.0) +
                                      (m.doubleBufferB ? load_b0 : 0.0);
            inner += load + std::max(cube_cycles, overlapped);
            st.cubeBusyCycles += cube_cycles;
            st.dmaBusyCycles += load_a0 + load_b0;
            ++st.l0Tiles;
        }
        inner += pending_load;

        // Accumulator drain + vector epilogue once the K loop of an
        // (m1 x n1) block completes.
        const bool last_k =
            ((t1 + 1) % std::max<std::int64_t>(tk1, 1)) == 0;
        double epilogue = 0.0;
        if (last_k) {
            const double drains = static_cast<double>(tm0 * tn0);
            const double vec_cycles =
                static_cast<double>(m.m1) * static_cast<double>(m.n1) /
                tech.vecElemsPerCycle;
            const double writeback = out1_bytes / tech.dramBytesPerCycle;
            epilogue = m.fuseVector
                           ? drains * drain_c0 +
                                 std::max(vec_cycles, writeback)
                           : drains * drain_c0 + vec_cycles + writeback;
            st.vecBusyCycles += vec_cycles;
        }
        const double overhead = icache_stall + prep.pbStall;
        cycles += std::max(inner, fill_cycles) + epilogue + overhead;
        st.dramBytes += a1_bytes + b1_bytes + (last_k ? out1_bytes : 0.0);
    }
    st.l1Tiles = simulated_l1;

    if (st.extrapolated && simulated_l1 > 0) {
        const double scale = static_cast<double>(l1_tiles) /
                             static_cast<double>(simulated_l1);
        cycles *= scale;
        st.dramBytes *= scale;
        st.cubeBusyCycles *= scale;
        st.dmaBusyCycles *= scale;
        st.vecBusyCycles *= scale;
    }
    cycles += 500.0; // kernel launch / barrier overhead
    st.cycles = cycles;

    // Energy.
    const double issued_macs =
        st.cubeBusyCycles > 0.0
            ? (st.cubeBusyCycles - tech.cubePipelineDepth *
                   static_cast<double>(st.l0Tiles)) *
                  prep.cubeMacs
            : prep.useful;
    const double work_macs = std::max(issued_macs, prep.macs);
    const double e_mac = work_macs * tech.macPj;
    const double e_l0a = work_macs / static_cast<double>(prep.cubeN) *
                         prep.pjL0a;
    const double e_l0b = work_macs / static_cast<double>(prep.cubeM) *
                         prep.pjL0b;
    const double e_l0c = work_macs / static_cast<double>(prep.cubeK) *
                         4.0 * prep.pjL0c;
    const double e_l1 = st.dramBytes * prep.pjL1;
    const double e_ub = st.vecBusyCycles * tech.vecElemsPerCycle * 2.0 *
                        prep.pjUb;
    const double e_dram = (st.dramBytes / 2.0) * tech.dramPj;
    const double e_idle = prep.idlePjPerCycle * cycles;
    const double energy_pj =
        e_mac + e_l0a + e_l0b + e_l0c + e_l1 + e_ub + e_dram + e_idle;
    const double latency_ns = cycles / tech.clockGhz;
    const double dynamic_mw = energy_pj / std::max(latency_ns, 1.0);

    accel::Ppa ppa;
    ppa.latencyMs = cycles / (tech.clockGhz * 1e6);
    ppa.powerMw = dynamic_mw + prep.staticMw;
    ppa.areaMm2 = prep.areaMm2;
    ppa.energyMj = energy_pj * 1e-9;
    ppa.feasible = true;
    if (stats_out)
        *stats_out = st;
    return ppa;
}

} // namespace unico::oracle

#endif // UNICO_TESTS_CUBE_TILE_ORACLE_HH
