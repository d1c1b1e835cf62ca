/**
 * @file
 * MAESTRO-style analytical PPA model for the 2-D spatial template.
 *
 * Given (operator, hardware configuration, software mapping) the
 * model performs a data-centric reuse analysis of the three-level
 * memory hierarchy (PE-private L1, shared L2, DRAM) connected by a
 * bandwidth-limited NoC, and returns latency, power and area.
 * Feasibility (tiles fitting buffers) is checked exactly; an
 * infeasible mapping yields Ppa::infeasible().
 *
 * The model is intentionally analytical (closed form, microsecond
 * evaluation) — it plays the role MAESTRO plays in the paper's
 * open-source platform experiments. Absolute numbers are calibrated
 * to a 28nm-class 1 GHz design but only *relative* ordering matters
 * for the co-optimization results.
 */

#ifndef UNICO_COSTMODEL_ANALYTICAL_HH
#define UNICO_COSTMODEL_ANALYTICAL_HH

#include <array>
#include <cstdint>

#include "accel/ppa.hh"
#include "accel/spatial.hh"
#include "mapping/mapping.hh"
#include "workload/tensor_op.hh"

namespace unico::costmodel {

/** Technology constants of the analytical model. */
struct TechParams
{
    double clockGhz = 1.0;       ///< core clock
    double macPj = 0.6;          ///< energy per 16-bit MAC
    double l1BasePj = 0.25;      ///< L1 access energy at 1 KiB
    double l1SlopePj = 0.06;     ///< L1 energy growth per sqrt(KiB)
    double l2BasePj = 1.2;       ///< L2 access energy at 32 KiB
    double l2SlopePj = 0.25;     ///< L2 energy growth per sqrt(KiB)
    double dramPj = 80.0;        ///< DRAM energy per 16-bit element
    double nocPjPerByteHop = 0.04; ///< NoC energy per byte per hop
    double dramBytesPerCycle = 32.0; ///< off-chip bandwidth
    double peAreaMm2 = 0.0048;   ///< one MAC PE incl. register file
    double sramMm2PerKb = 0.0011; ///< buffer area per KiB
    double nocAreaMm2PerPeBw = 0.00002; ///< NoC area per PE per B/cyc
    double staticMwPerMm2 = 6.0; ///< leakage per mm^2
    double registerReuse = 0.45; ///< fraction of MAC operand reads
                                 ///< that hit the PE register file
};

/**
 * Candidate-invariant context of one (tech, operator, hardware)
 * query, built once per layer-run by AnalyticalCostModel::prepare()
 * and then amortized over thousands of mapping evaluations. It
 * precomputes everything evaluate() needs that does not depend on
 * the mapping: operand-dim masks, byte capacity limits, the
 * sqrt-bearing SRAM access energies, fully invariant energy terms
 * and hardware area/static power.
 *
 * The struct is self-contained by value — it holds no references to
 * the TensorOp/SpatialHwConfig it was built from, so it may outlive
 * both. Fields are filled by the model; treat them as read-only.
 */
struct PreparedSpatialQuery
{
    std::array<std::int64_t, mapping::kNumDims> extents{};
    std::array<bool, mapping::kNumDims> inputDims{};
    std::array<bool, mapping::kNumDims> weightDims{};
    std::array<bool, mapping::kNumDims> outputDims{};
    bool depthwise = false;
    std::int64_t strideX = 1;
    std::int64_t strideY = 1;
    bool weightStationary = false;
    std::int64_t peX = 1;
    std::int64_t peY = 1;
    double l1Limit = 0.0;        ///< hw.l1Bytes as double
    double l2Limit = 0.0;        ///< hw.l2Bytes as double
    double nocBandwidth = 1.0;   ///< bytes per cycle
    double dramBytesPerCycle = 1.0;
    double clockGhz = 1.0;
    double nocPjPerByteHop = 0.0;
    double dramPj = 0.0;
    double macs = 0.0;           ///< op.macs()
    double eMac = 0.0;           ///< macs * macPj
    double eL1 = 0.0;            ///< register-miss L1 energy (invariant)
    double l2AccessPj = 0.0;     ///< sramAccessPj at the L2 size
    double avgHops = 0.0;        ///< average NoC hop count
    double areaMm2 = 0.0;        ///< mapping-independent area
    double staticMw = 0.0;       ///< leakage at that area
};

/** Analytical PPA estimation engine for the spatial template. */
class AnalyticalCostModel
{
  public:
    explicit AnalyticalCostModel(TechParams tech = TechParams{})
        : tech_(tech)
    {}

    /** Technology constants in use. */
    const TechParams &tech() const { return tech_; }

    /**
     * Estimate PPA for one operator under one mapping.
     * Returns Ppa::infeasible() when a tile violates a buffer
     * capacity or the mapping is structurally invalid for @p op.
     */
    accel::Ppa evaluate(const workload::TensorOp &op,
                        const accel::SpatialHwConfig &hw,
                        const mapping::Mapping &m) const;

    /**
     * Build the candidate-invariant query context for (op, hw).
     * Build once per layer-run, then evaluate every candidate
     * through it.
     */
    PreparedSpatialQuery prepare(const workload::TensorOp &op,
                                 const accel::SpatialHwConfig &hw) const;

    /**
     * evaluate() through a prepared context. Bit-identical to
     * evaluate(op, hw, m) for the (op, hw) the context was built
     * from — pinned by tests — just without the per-call setup.
     */
    accel::Ppa evaluate(const PreparedSpatialQuery &prep,
                        const mapping::Mapping &m) const;

    /** Mapping-independent area of a hardware configuration. */
    double areaMm2(const accel::SpatialHwConfig &hw) const;

    /**
     * Nominal wall-clock cost of one evaluation, charged to the
     * EvalClock ledger ("MAESTRO ... takes seconds to output PPAs").
     */
    static constexpr double nominalEvalSeconds() { return 2.0; }

  private:
    TechParams tech_;
};

} // namespace unico::costmodel

#endif // UNICO_COSTMODEL_ANALYTICAL_HH
