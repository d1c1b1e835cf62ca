/**
 * @file
 * Cycle-level simulator of the Ascend-like (DaVinci-style) cube core.
 *
 * This is the reproduction's stand-in for the proprietary
 * cycle-accurate model (CAModel) of Sec. 4.1: a tile-by-tile pipeline
 * simulation of DMA engines, the L0A/L0B/L0C staging buffers with
 * bank groups, the MxNxK cube unit and the vector epilogue through
 * the unified buffer. The tile pipeline's sums are computed in closed
 * form, bit for bit equal to the literal per-tile loop that
 * tests/cube_tile_oracle.hh keeps as the reference. Per the paper,
 * each query charges minutes of virtual search time to the EvalClock
 * ledger whatever its wall-clock cost.
 */

#ifndef UNICO_CAMODEL_SIMULATOR_HH
#define UNICO_CAMODEL_SIMULATOR_HH

#include <cstdint>

#include "accel/ascend.hh"
#include "accel/ppa.hh"
#include "camodel/cube_mapping.hh"
#include "workload/tensor_op.hh"

namespace unico::camodel {

/** Per-run counters exposed for tests and analysis. */
struct SimStats
{
    double cycles = 0.0;         ///< total simulated cycles
    double cubeBusyCycles = 0.0; ///< cycles the cube had work
    double dmaBusyCycles = 0.0;  ///< cycles DMA engines were busy
    double vecBusyCycles = 0.0;  ///< cycles of vector epilogue
    double dramBytes = 0.0;      ///< off-chip traffic
    std::int64_t l0Tiles = 0;    ///< inner-tile iterations simulated
    std::int64_t l1Tiles = 0;    ///< L1-tile iterations simulated
    bool extrapolated = false;   ///< steady-state extrapolation used
};

/** Technology constants of the cycle-level model. */
struct CubeTech
{
    double clockGhz = 1.0;
    double dramBytesPerCycle = 64.0;
    double l1BytesPerCycle = 128.0;       ///< L1 -> L0 move bandwidth
    double l0PortBytesPerCycle = 32.0;    ///< per L0 bank group
    double vecElemsPerCycle = 128.0;      ///< vector unit throughput
    double cubePipelineDepth = 6.0;       ///< issue-to-writeback
    double macPj = 0.8;                   ///< int16 MAC + fp32 accum
    /** Per 16-bit L0 access at the 64 KiB reference size; actual
     *  access energy scales with sqrt(capacity / 64 KiB), which is
     *  what makes the L0A/L0B/L0C capacity split a first-order
     *  power knob (Sec. 4.6). */
    double l0Pj = 1.2;
    double l1Pj = 2.4;                    ///< per 16-bit L1 access @1MiB
    double ubPj = 1.2;                    ///< per 16-bit UB access @256K
    double dramPj = 60.0;                 ///< per 16-bit DRAM access
    /** Clock-tree / periphery burn per cycle, as a fraction of the
     *  cube's peak dynamic energy (imperfect clock gating): stalled
     *  cycles still cost energy, so removing stalls saves power —
     *  the effect behind Fig. 11's joint latency+power wins. */
    double idleFraction = 0.3;
    double macAreaMm2 = 0.0026;           ///< per cube MAC
    double sramMm2PerKb = 0.00036;        ///< buffer area
    double fixedAreaMm2 = 6.0;            ///< scalar/vector/ctrl area
    double staticMwPerMm2 = 5.0;
    /** Iteration cap before steady-state extrapolation kicks in. */
    std::int64_t maxSimulatedTiles = 250000;
};

/**
 * Candidate-invariant context of one (tech, operator, hardware)
 * query, built once per layer-run by CycleAccurateModel::prepare()
 * and amortized over every mapping candidate of that layer. It
 * precomputes the GemmShape, buffer byte limits, the parameter-buffer
 * stall (fully mapping-independent), the five sqrt-bearing SRAM
 * access energies, idle/area/static-power constants, and the query
 * fingerprint prefix of the evaluation-cache key
 * (mapping::cachedEvaluate).
 *
 * Self-contained by value (no references into the TensorOp or
 * CubeHwConfig it came from), but only meaningful with the model
 * whose prepare() built it: the model's remaining tech constants are
 * read at evaluation time, and the fingerprint prefix encodes that
 * tech. Fields are filled by the model; treat them as read-only.
 */
struct PreparedCubeQuery
{
    GemmShape g{};
    double l0aLimit = 0.0;
    double l0bLimit = 0.0;
    double l0cLimit = 0.0;
    double l1Limit = 0.0;
    double ubLimit = 0.0;
    std::int64_t cubeM = 1;
    std::int64_t cubeN = 1;
    std::int64_t cubeK = 1;
    std::int64_t l0aBanks = 1;
    std::int64_t l0bBanks = 1;
    std::int64_t l0cBanks = 1;
    double icacheLimit = 0.0;    ///< hw.icacheBytes as double
    double pbStall = 0.0;        ///< parameter-buffer stall (invariant)
    double cubeMacs = 1.0;       ///< hw.cubeMacs() as double
    double macs = 0.0;           ///< op.macs()
    double useful = 0.0;         ///< g.m * g.n * g.k
    double pjL0a = 0.0;          ///< sqrt-scaled L0A access energy
    double pjL0b = 0.0;
    double pjL0c = 0.0;
    double pjL1 = 0.0;
    double pjUb = 0.0;
    double idlePjPerCycle = 0.0; ///< idleFraction * cubeMacs * macPj
    double areaMm2 = 0.0;        ///< mapping-independent core area
    double staticMw = 0.0;       ///< leakage at that area
    /** (model kind, tech, op, hw) fingerprint prefix. */
    common::Fingerprint context{};
};

/** Cycle-level PPA estimation engine for the Ascend-like core. */
class CycleAccurateModel
{
  public:
    explicit CycleAccurateModel(CubeTech tech = CubeTech{})
        : tech_(tech), techFp_(techFingerprint(tech))
    {}

    /** Technology constants in use. */
    const CubeTech &tech() const { return tech_; }

    /**
     * Simulate one operator under one mapping; returns
     * Ppa::infeasible() when any tile exceeds its buffer.
     * @param stats optional output of internal counters.
     */
    accel::Ppa evaluate(const workload::TensorOp &op,
                        const accel::CubeHwConfig &hw,
                        const CubeMapping &m,
                        SimStats *stats = nullptr) const;

    /**
     * Build the candidate-invariant query context for (op, hw),
     * including the cache-key fingerprint prefix. Build once per
     * layer-run; use only with this model (the context embeds this
     * model's tech constants and fingerprint).
     */
    PreparedCubeQuery prepare(const workload::TensorOp &op,
                              const accel::CubeHwConfig &hw) const;

    /**
     * evaluate() through a prepared context — bit-identical PPA and
     * counters to evaluate(op, hw, m) for the (op, hw) the context
     * was built from, without the per-call setup (fingerprints,
     * sqrt energy constants, area).
     */
    accel::Ppa evaluate(const PreparedCubeQuery &prep, const CubeMapping &m,
                        SimStats *stats = nullptr) const;

    /**
     * Stable fingerprint of one (model kind, tech constants, op, hw)
     * query context; combined with a mapping fingerprint it forms the
     * evaluation-cache key. Distinct tech constants (e.g. the
     * degraded rung's coarser extrapolation cap) yield distinct
     * fingerprints, so rungs never share entries.
     */
    common::Fingerprint
    queryFingerprint(const workload::TensorOp &op,
                     const accel::CubeHwConfig &hw) const;

    /** Mapping-independent core area. */
    double areaMm2(const accel::CubeHwConfig &hw) const;

    /**
     * Nominal wall-clock cost of one CAModel query (2-10 minutes per
     * the paper), charged to the EvalClock ledger; grows with the
     * simulated tile count.
     */
    double nominalEvalSeconds(const SimStats &stats) const;

    /**
     * Coarse copy of this model for graceful degradation: aggressive
     * steady-state extrapolation (a few hundred simulated tiles)
     * gives analytical-fidelity estimates at analytical cost. The
     * fault-tolerant driver drops a repeatedly failing candidate onto
     * this rung instead of aborting the search.
     */
    CycleAccurateModel degraded() const;

    /** Nominal cost of one degraded (analytical-fidelity) query,
     *  matching costmodel::AnalyticalCostModel's charge. */
    static double nominalDegradedEvalSeconds() { return 2.0; }

  private:
    static common::Fingerprint techFingerprint(const CubeTech &tech);

    /** prepare() without the fingerprint prefix (used by the
     *  unprepared evaluate() wrapper, which never touches the cache). */
    PreparedCubeQuery makeContext(const workload::TensorOp &op,
                                  const accel::CubeHwConfig &hw) const;

    CubeTech tech_;
    common::Fingerprint techFp_;
};

} // namespace unico::camodel

#endif // UNICO_CAMODEL_SIMULATOR_HH
