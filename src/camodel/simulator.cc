#include "camodel/simulator.hh"

#include <algorithm>
#include <cmath>

#include "common/math.hh"

namespace unico::camodel {

using accel::CubeHwConfig;
using accel::Ppa;

namespace {

using common::ceilDiv;
using common::periodicAdd;
using common::repeatAdd;

/** Cycles to move @p bytes through an L0 bank group port array; fewer
 *  bank groups serialize accesses and add conflict stalls. */
double
l0MoveCycles(double bytes, std::int64_t banks, double port_bytes)
{
    const double bw = port_bytes * static_cast<double>(banks);
    const double base = bytes / bw;
    // Single-banked buffers suffer read/write turnaround conflicts.
    const double conflict = banks <= 1 ? 1.25 : (banks == 2 ? 1.08 : 1.0);
    return base * conflict;
}

} // namespace

double
CycleAccurateModel::areaMm2(const CubeHwConfig &hw) const
{
    const double macs = static_cast<double>(hw.cubeMacs());
    const double buffer_kb =
        static_cast<double>(hw.l0aBytes + hw.l0bBytes + hw.l0cBytes +
                            hw.l1Bytes + hw.ubBytes + hw.pbBytes +
                            hw.icacheBytes) /
        1024.0;
    return tech_.fixedAreaMm2 + macs * tech_.macAreaMm2 +
           buffer_kb * tech_.sramMm2PerKb;
}

Ppa
CycleAccurateModel::evaluate(const PreparedCubeQuery &prep,
                             const CubeMapping &m,
                             SimStats *stats_out) const
{
    const GemmShape &g = prep.g;
    SimStats st;

    // ---- Buffer feasibility ----------------------------------------
    const double a0_bytes = 2.0 * static_cast<double>(m.m0 * m.k0);
    const double b0_bytes = 2.0 * static_cast<double>(m.k0 * m.n0);
    const double c0_bytes = 4.0 * static_cast<double>(m.m0 * m.n0);
    if (a0_bytes * (m.doubleBufferA ? 2.0 : 1.0) > prep.l0aLimit)
        return Ppa::infeasible();
    if (b0_bytes * (m.doubleBufferB ? 2.0 : 1.0) > prep.l0bLimit)
        return Ppa::infeasible();
    if (c0_bytes > prep.l0cLimit)
        return Ppa::infeasible();

    const double a1_bytes = 2.0 * static_cast<double>(m.m1 * m.k1);
    const double b1_bytes = 2.0 * static_cast<double>(m.k1 * m.n1);
    const double out1_bytes = 2.0 * static_cast<double>(m.m1 * m.n1);
    // L1 always ping-pongs input tiles; unfused output also stages
    // through L1 on its way out.
    const double l1_need = 2.0 * (a1_bytes + b1_bytes) +
                           (m.fuseVector ? 0.0 : out1_bytes);
    if (l1_need > prep.l1Limit)
        return Ppa::infeasible();

    // Vector epilogue works on (m0 x n1) slabs in UB.
    const double ub_slab = 2.0 * static_cast<double>(m.m0 * m.n1);
    if (ub_slab * 2.0 > prep.ubLimit)
        return Ppa::infeasible();

    // ---- Static per-tile costs ----------------------------------------
    const double cube_issues =
        static_cast<double>(ceilDiv(m.m0, prep.cubeM)) *
        static_cast<double>(ceilDiv(m.n0, prep.cubeN)) *
        static_cast<double>(ceilDiv(m.k0, prep.cubeK));
    const double cube_cycles = cube_issues + tech_.cubePipelineDepth;
    const double load_a0 =
        l0MoveCycles(a0_bytes, prep.l0aBanks, tech_.l0PortBytesPerCycle);
    const double load_b0 =
        l0MoveCycles(b0_bytes, prep.l0bBanks, tech_.l0PortBytesPerCycle);
    const double drain_c0 =
        l0MoveCycles(c0_bytes, prep.l0cBanks, tech_.l0PortBytesPerCycle);

    // Instruction-cache model: the fused pipeline's loop body spills
    // out of a small I-cache and pays a refill per L1 tile.
    const double prog_bytes = 12.0 * 1024.0 + (m.fuseVector ? 9216.0 : 0.0)
                              + (m.doubleBufferA ? 2048.0 : 0.0)
                              + (m.doubleBufferB ? 2048.0 : 0.0);
    const double icache_miss_bytes =
        std::max(0.0, prog_bytes - prep.icacheLimit);
    const double icache_stall = icache_miss_bytes / 32.0;

    // Parameter-buffer stall: fully candidate-invariant, precomputed.
    const double pb_stall = prep.pbStall;

    // ---- Tile loop ------------------------------------------------------
    const std::int64_t tm1 = ceilDiv(g.m, m.m1);
    const std::int64_t tn1 = ceilDiv(g.n, m.n1);
    const std::int64_t tk1 = ceilDiv(g.k, m.k1);
    const std::int64_t tm0 = ceilDiv(m.m1, m.m0);
    const std::int64_t tn0 = ceilDiv(m.n1, m.n0);
    const std::int64_t tk0 = ceilDiv(m.k1, m.k0);

    const std::int64_t l1_tiles = tm1 * tn1 * tk1;
    const std::int64_t l0_per_l1 = tm0 * tn0 * tk0;

    // Steady-state extrapolation for very deep loop nests keeps the
    // simulator bounded while remaining deterministic.
    std::int64_t sim_l1_tiles = l1_tiles;
    if (l1_tiles * l0_per_l1 > tech_.maxSimulatedTiles) {
        sim_l1_tiles = std::max<std::int64_t>(
            1, tech_.maxSimulatedTiles / std::max<std::int64_t>(
                   l0_per_l1, 1));
        st.extrapolated = true;
    }

    // The tile loops in closed form (tests/cube_tile_oracle.hh keeps
    // them literal). Every addend is loop-invariant, so each
    // accumulator is a run of one repeated add (repeatAdd) or a period
    // of (tk1 - 1) plain L1 tiles and one last-k tile (periodicAdd),
    // and both helpers return the literal loops' bits.

    // DRAM -> L1 fill of the A and B tiles (double buffered at L1:
    // overlapped with the previous tile's compute, so only the
    // non-overlapped residue shows up).
    const double fill_cycles =
        (a1_bytes + b1_bytes) / tech_.dramBytesPerCycle;
    // Inner L0 pipeline: ping-pong lets the next load run under the
    // cube; a tile costs max(cube, overlapped load) plus any
    // serialized (single-buffered) load.
    const double load = (m.doubleBufferA ? 0.0 : load_a0) +
                        (m.doubleBufferB ? 0.0 : load_b0);
    const double overlapped = (m.doubleBufferA ? load_a0 : 0.0) +
                              (m.doubleBufferB ? load_b0 : 0.0);
    const double inner =
        repeatAdd(0.0, load + std::max(cube_cycles, overlapped),
                  l0_per_l1) +
        (load_a0 + load_b0); // first tile preload

    // Accumulator drain + vector epilogue for the (m1 x n1) block once
    // its K loop completes (modeled at L1-tile granularity).
    const double drains = static_cast<double>(tm0 * tn0);
    const double vec_cycles = static_cast<double>(m.m1) *
                              static_cast<double>(m.n1) /
                              tech_.vecElemsPerCycle;
    const double writeback = out1_bytes / tech_.dramBytesPerCycle;
    const double epilogue =
        m.fuseVector
            ? drains * drain_c0 + std::max(vec_cycles, writeback)
            : drains * drain_c0 + vec_cycles + writeback;
    const double overhead = icache_stall + pb_stall;
    // L1 double buffering: DRAM fill overlaps inner compute.
    const double step_cycles = std::max(inner, fill_cycles) + 0.0 + overhead;
    const double step_cycles_k =
        std::max(inner, fill_cycles) + epilogue + overhead;
    const double step_dram = a1_bytes + b1_bytes + 0.0;
    const double step_dram_k = a1_bytes + b1_bytes + out1_bytes;
    const std::int64_t k_mod = std::max<std::int64_t>(tk1, 1);
    const std::int64_t l0_tiles = sim_l1_tiles * l0_per_l1;
    double cycles =
        periodicAdd(0.0, step_cycles, step_cycles_k, k_mod, sim_l1_tiles);
    st.dramBytes =
        periodicAdd(0.0, step_dram, step_dram_k, k_mod, sim_l1_tiles);
    st.vecBusyCycles = repeatAdd(0.0, vec_cycles, sim_l1_tiles / k_mod);
    st.cubeBusyCycles = repeatAdd(0.0, cube_cycles, l0_tiles);
    st.dmaBusyCycles = repeatAdd(0.0, load_a0 + load_b0, l0_tiles);
    st.l0Tiles = l0_tiles;
    st.l1Tiles = sim_l1_tiles;

    if (st.extrapolated && sim_l1_tiles > 0) {
        const double scale = static_cast<double>(l1_tiles) /
                             static_cast<double>(sim_l1_tiles);
        cycles *= scale;
        st.dramBytes *= scale;
        st.cubeBusyCycles *= scale;
        st.dmaBusyCycles *= scale;
        st.vecBusyCycles *= scale;
    }
    cycles += 500.0; // kernel launch / barrier overhead
    st.cycles = cycles;

    // ---- Energy ----------------------------------------------------------
    // Padding waste: cube issues operate on full cube blocks.
    const double issued_macs =
        st.cubeBusyCycles > 0.0
            ? (st.cubeBusyCycles - tech_.cubePipelineDepth *
                   static_cast<double>(st.l0Tiles)) *
                  prep.cubeMacs
            : prep.useful;
    const double work_macs = std::max(issued_macs, prep.macs);
    const double e_mac = work_macs * tech_.macPj;

    // The sqrt-scaled SRAM access energies arrive precomputed in the
    // prepared context (they depend only on buffer capacities).
    // Per cube issue: M*K reads from L0A, K*N reads from L0B and
    // M*N fp32 (double-width) accumulator read+writes on L0C.
    const double e_l0a = work_macs / static_cast<double>(prep.cubeN) *
                         prep.pjL0a;
    const double e_l0b = work_macs / static_cast<double>(prep.cubeM) *
                         prep.pjL0b;
    const double e_l0c = work_macs / static_cast<double>(prep.cubeK) *
                         4.0 * prep.pjL0c;
    const double l1_accesses = st.dramBytes; // fill + drain, 16-bit
    const double e_l1 = l1_accesses * prep.pjL1;
    const double e_ub = st.vecBusyCycles * tech_.vecElemsPerCycle * 2.0 *
                        prep.pjUb;
    const double e_dram = (st.dramBytes / 2.0) * tech_.dramPj;
    // Clock-tree / periphery burn: every cycle costs a fraction of
    // the cube's peak dynamic energy whether or not useful work
    // retires. Oversized cubes idling on DMA stalls pay for it.
    const double e_idle = prep.idlePjPerCycle * cycles;
    const double energy_pj =
        e_mac + e_l0a + e_l0b + e_l0c + e_l1 + e_ub + e_dram + e_idle;

    const double latency_ns = cycles / tech_.clockGhz;
    const double dynamic_mw = energy_pj / std::max(latency_ns, 1.0);

    Ppa ppa;
    ppa.latencyMs = cycles / (tech_.clockGhz * 1e6);
    ppa.powerMw = dynamic_mw + prep.staticMw;
    ppa.areaMm2 = prep.areaMm2;
    ppa.energyMj = energy_pj * 1e-9;
    ppa.feasible = true;
    if (stats_out)
        *stats_out = st;
    return ppa;
}

PreparedCubeQuery
CycleAccurateModel::makeContext(const workload::TensorOp &op,
                                const CubeHwConfig &hw) const
{
    PreparedCubeQuery q;
    q.g = GemmShape::fromOp(op);
    q.l0aLimit = static_cast<double>(hw.l0aBytes);
    q.l0bLimit = static_cast<double>(hw.l0bBytes);
    q.l0cLimit = static_cast<double>(hw.l0cBytes);
    q.l1Limit = static_cast<double>(hw.l1Bytes);
    q.ubLimit = static_cast<double>(hw.ubBytes);
    q.cubeM = hw.cubeM;
    q.cubeN = hw.cubeN;
    q.cubeK = hw.cubeK;
    q.l0aBanks = hw.l0aBanks;
    q.l0bBanks = hw.l0bBanks;
    q.l0cBanks = hw.l0cBanks;
    q.icacheLimit = static_cast<double>(hw.icacheBytes);
    // Expression trees below replicate the historical evaluate() body
    // exactly so the hoisted terms are bit-identical to the seed.
    const double param_bytes = 4.0 * static_cast<double>(q.g.m);
    const double pb_miss_bytes =
        std::max(0.0, param_bytes - static_cast<double>(hw.pbBytes));
    q.pbStall = pb_miss_bytes / tech_.dramBytesPerCycle;
    q.cubeMacs = static_cast<double>(hw.cubeMacs());
    q.macs = static_cast<double>(op.macs());
    q.useful = static_cast<double>(q.g.m) * static_cast<double>(q.g.n) *
               static_cast<double>(q.g.k);
    // SRAM access energy scales with sqrt(capacity); the 64 KiB
    // (L0) / 1 MiB (L1) / 256 KiB (UB) reference sizes anchor the
    // per-access constants.
    auto sram_pj = [](double base_pj, double bytes, double ref_bytes) {
        return base_pj * std::sqrt(std::max(bytes, 1024.0) / ref_bytes);
    };
    q.pjL0a = sram_pj(tech_.l0Pj, static_cast<double>(hw.l0aBytes), 65536.0);
    q.pjL0b = sram_pj(tech_.l0Pj, static_cast<double>(hw.l0bBytes), 65536.0);
    q.pjL0c = sram_pj(tech_.l0Pj, static_cast<double>(hw.l0cBytes), 65536.0);
    q.pjL1 =
        sram_pj(tech_.l1Pj, static_cast<double>(hw.l1Bytes), 1048576.0);
    q.pjUb = sram_pj(tech_.ubPj, static_cast<double>(hw.ubBytes), 262144.0);
    q.idlePjPerCycle =
        tech_.idleFraction * q.cubeMacs * tech_.macPj;
    q.areaMm2 = areaMm2(hw);
    q.staticMw = tech_.staticMwPerMm2 * q.areaMm2;
    return q;
}

PreparedCubeQuery
CycleAccurateModel::prepare(const workload::TensorOp &op,
                            const CubeHwConfig &hw) const
{
    PreparedCubeQuery q = makeContext(op, hw);
    q.context = queryFingerprint(op, hw);
    return q;
}

Ppa
CycleAccurateModel::evaluate(const workload::TensorOp &op,
                             const CubeHwConfig &hw, const CubeMapping &m,
                             SimStats *stats_out) const
{
    return evaluate(makeContext(op, hw), m, stats_out);
}

double
CycleAccurateModel::nominalEvalSeconds(const SimStats &stats) const
{
    // 2 minutes floor, growing with simulated detail up to 10 minutes
    // (matches the paper's reported 2-10 min CAModel wall-clock).
    const double detail =
        static_cast<double>(stats.l0Tiles) / 1000.0;
    return std::min(600.0, 120.0 + detail);
}

common::Fingerprint
CycleAccurateModel::techFingerprint(const CubeTech &tech)
{
    common::FingerprintBuilder fb;
    // Model-kind salt: keeps cycle-level keys apart from any other
    // model's.
    fb.add(std::string_view{"C"});
    fb.add(tech.clockGhz)
        .add(tech.dramBytesPerCycle)
        .add(tech.l1BytesPerCycle)
        .add(tech.l0PortBytesPerCycle)
        .add(tech.vecElemsPerCycle)
        .add(tech.cubePipelineDepth)
        .add(tech.macPj)
        .add(tech.l0Pj)
        .add(tech.l1Pj)
        .add(tech.ubPj)
        .add(tech.dramPj)
        .add(tech.idleFraction)
        .add(tech.macAreaMm2)
        .add(tech.sramMm2PerKb)
        .add(tech.fixedAreaMm2)
        .add(tech.staticMwPerMm2)
        .add(tech.maxSimulatedTiles);
    return fb.fingerprint();
}

common::Fingerprint
CycleAccurateModel::queryFingerprint(const workload::TensorOp &op,
                                     const accel::CubeHwConfig &hw) const
{
    common::FingerprintBuilder fb;
    fb.add(techFp_).add(hw.fingerprint()).add(op.fingerprint());
    return fb.fingerprint();
}

CycleAccurateModel
CycleAccurateModel::degraded() const
{
    CubeTech coarse = tech_;
    coarse.maxSimulatedTiles = 512;
    return CycleAccurateModel(coarse);
}

} // namespace unico::camodel
