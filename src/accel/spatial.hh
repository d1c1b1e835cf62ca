/**
 * @file
 * The 2-D spatial accelerator template of Fig. 1 (open-source
 * platform): a PE_x x PE_y array with private L1 scratchpads, a
 * shared L2 buffer, a NoC of configurable bandwidth and a
 * weight-/output-stationary dataflow switch with a GEMMCore
 * intrinsic.
 */

#ifndef UNICO_ACCEL_SPATIAL_HH
#define UNICO_ACCEL_SPATIAL_HH

#include <cstdint>
#include <string>

#include "accel/design_space.hh"

namespace unico::accel {

/** Stationarity of the inner dataflow. */
enum class Dataflow {
    WeightStationary,
    OutputStationary,
};

/** Human-readable dataflow name. */
const char *toString(Dataflow df);

/** Decoded configuration of the spatial template. */
struct SpatialHwConfig
{
    std::int64_t peX = 1;       ///< PEs along x
    std::int64_t peY = 1;       ///< PEs along y
    std::int64_t l1Bytes = 512; ///< private scratchpad per PE
    std::int64_t l2Bytes = 65536; ///< shared global buffer
    std::int64_t nocBandwidth = 64; ///< bytes per cycle into the array
    Dataflow dataflow = Dataflow::WeightStationary;

    /** Total number of PEs. */
    std::int64_t pes() const { return peX * peY; }

    /** "pe=AxB l1=... l2=... noc=... df=..." summary. */
    std::string describe() const;
};

/** Deployment scenario (power envelope and space size, Sec. 4.1). */
enum class Scenario {
    Edge,  ///< power < 2 W, HW space ~1e5
    Cloud, ///< power < 20 W, HW space ~1e9
};

/** Human-readable scenario name. */
const char *toString(Scenario sc);

/** Power constraint (mW) of a scenario. */
double powerBudgetMw(Scenario sc);

/**
 * The spatial template's design space plus decode logic.
 *
 * Edge restricts the PE array to 16x16 and a pruned buffer grid
 * (~1e5 configurations); cloud uses the full 24x24 array and the
 * complete {2^i * 3^j} buffer grids (~1e8 configurations).
 */
class SpatialDesignSpace
{
  public:
    explicit SpatialDesignSpace(Scenario scenario);

    /** Scenario this space was built for. */
    Scenario scenario() const { return scenario_; }

    /** The underlying generic discrete space. */
    const DesignSpace &space() const { return space_; }

    /** Decode an index vector into a configuration. */
    SpatialHwConfig decode(const HwPoint &p) const;

  private:
    Scenario scenario_;
    DesignSpace space_;
};

} // namespace unico::accel

#endif // UNICO_ACCEL_SPATIAL_HH
