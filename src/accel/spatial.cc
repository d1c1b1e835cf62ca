#include "accel/spatial.hh"

#include <cassert>
#include <sstream>

namespace unico::accel {

const char *
toString(Dataflow df)
{
    switch (df) {
      case Dataflow::WeightStationary: return "WS";
      case Dataflow::OutputStationary: return "OS";
    }
    return "?";
}

const char *
toString(Scenario sc)
{
    switch (sc) {
      case Scenario::Edge: return "edge";
      case Scenario::Cloud: return "cloud";
    }
    return "?";
}

double
powerBudgetMw(Scenario sc)
{
    return sc == Scenario::Edge ? 2000.0 : 20000.0;
}

std::string
SpatialHwConfig::describe() const
{
    std::ostringstream oss;
    oss << "pe=" << peX << "x" << peY << " l1=" << l1Bytes << "B l2="
        << l2Bytes / 1024 << "KB noc=" << nocBandwidth << " df="
        << toString(dataflow);
    return oss.str();
}

namespace {

std::vector<double>
peRange(std::int64_t max_pe)
{
    std::vector<double> v;
    for (std::int64_t i = 1; i <= max_pe; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

SpatialDesignSpace::SpatialDesignSpace(Scenario scenario)
    : scenario_(scenario)
{
    if (scenario == Scenario::Edge) {
        // ~1e5 configurations: 16*16 * 12 * 8 * 2 * 2 = 98,304.
        space_.addAxis("pe_x", peRange(16));
        space_.addAxis("pe_y", peRange(16));
        // L1 grid pruned to 12 values in [512 B, 48 KiB].
        auto l1 = smoothGrid(512.0, 48.0 * 1024.0, 6);
        l1.resize(std::min<std::size_t>(l1.size(), 12));
        space_.addAxis("l1_bytes", l1);
        // L2 grid pruned to 8 values in [32 KiB, 1 MiB].
        auto l2 = smoothGrid(32.0, 1024.0, 5);
        l2.resize(std::min<std::size_t>(l2.size(), 8));
        for (auto &v : l2)
            v *= 1024.0; // KB -> bytes
        space_.addAxis("l2_bytes", l2);
    } else {
        // ~1e8 configurations: 24*24 * 121 * 121 * 2 * 2 = 3.4e7;
        // with the NoC axis widened to 4 values: 6.7e7.
        space_.addAxis("pe_x", peRange(24));
        space_.addAxis("pe_y", peRange(24));
        auto l1 = smoothGrid(1.0, 1024.0 * 1024.0, 10);
        space_.addAxis("l1_bytes", l1);
        auto l2 = smoothGrid(1.0, 60000.0, 10);
        for (auto &v : l2)
            v *= 1024.0; // KB -> bytes
        space_.addAxis("l2_bytes", l2);
    }
    space_.addAxis("noc_bw", {64.0, 128.0});
    space_.addAxis("dataflow", {0.0, 1.0});
}

SpatialHwConfig
SpatialDesignSpace::decode(const HwPoint &p) const
{
    assert(space_.contains(p));
    SpatialHwConfig cfg;
    cfg.peX = static_cast<std::int64_t>(space_.value(p, 0));
    cfg.peY = static_cast<std::int64_t>(space_.value(p, 1));
    cfg.l1Bytes = static_cast<std::int64_t>(space_.value(p, 2));
    cfg.l2Bytes = static_cast<std::int64_t>(space_.value(p, 3));
    cfg.nocBandwidth = static_cast<std::int64_t>(space_.value(p, 4));
    cfg.dataflow = space_.value(p, 5) < 0.5 ? Dataflow::WeightStationary
                                            : Dataflow::OutputStationary;
    return cfg;
}

} // namespace unico::accel
