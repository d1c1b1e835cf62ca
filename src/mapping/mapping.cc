#include "mapping/mapping.hh"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

namespace unico::mapping {

const char *
dimName(int dim)
{
    static const char *names[kNumDims] = {"N", "K", "C", "Y", "X", "R", "S"};
    assert(dim >= 0 && dim < kNumDims);
    return names[dim];
}

std::string
Mapping::describe() const
{
    std::ostringstream oss;
    oss << "l1=[";
    for (int d = 0; d < kNumDims; ++d)
        oss << (d ? "," : "") << l1Tile[d];
    oss << "] l2=[";
    for (int d = 0; d < kNumDims; ++d)
        oss << (d ? "," : "") << l2Tile[d];
    oss << "] spatial=" << dimName(spatialX) << "x" << dimName(spatialY)
        << " order=";
    for (int d = 0; d < kNumDims; ++d)
        oss << dimName(order[d]);
    return oss.str();
}

bool
Mapping::operator==(const Mapping &other) const
{
    return l1Tile == other.l1Tile && l2Tile == other.l2Tile &&
           spatialX == other.spatialX && spatialY == other.spatialY &&
           order == other.order;
}

namespace {

/** Tile ladder: 1, 2, 3, 4, 6, 8, 12, ... capped by extent, plus the
 *  extent itself (so a "no tiling" choice always exists). */
std::vector<std::int64_t>
makeLadder(std::int64_t extent)
{
    std::vector<std::int64_t> out;
    std::int64_t p2 = 1;
    while (p2 <= extent) {
        out.push_back(p2);
        if (3 * p2 / 2 <= extent && 3 * p2 / 2 > p2)
            out.push_back(3 * p2 / 2);
        p2 *= 2;
    }
    out.push_back(extent);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace

MappingSpace::MappingSpace(const workload::TensorOp &op) : op_(op)
{
    extents_ = {op.n, op.k, op.c, op.y, op.x, op.r, op.s};
    for (int d = 0; d < kNumDims; ++d)
        ladders_[d] = makeLadder(extents_[d]);
    // Spatial unrolling candidates: the output/reduction dims with
    // extent > 1 (R/S are too small to fill a PE axis profitably, N
    // is usually 1); fall back to K and X.
    for (int d : {DimK, DimC, DimY, DimX})
        if (extents_[d] > 1)
            spatialChoices_.push_back(d);
    if (spatialChoices_.size() < 2)
        spatialChoices_ = {DimK, DimX};
}

std::int64_t
MappingSpace::snapToLadder(int dim, std::int64_t v) const
{
    const auto &ladder = ladders_[dim];
    auto it = std::lower_bound(ladder.begin(), ladder.end(), v);
    if (it == ladder.end())
        return ladder.back();
    if (it != ladder.begin() && (*it - v) > (v - *(it - 1)))
        --it;
    return *it;
}

bool
MappingSpace::separateSpatial(Mapping &m) const
{
    if (m.spatialX != m.spatialY || spatialChoices_.size() <= 1)
        return false;
    for (int d : spatialChoices_) {
        if (d != m.spatialX) {
            m.spatialY = d;
            return true;
        }
    }
    return false;
}

Mapping
MappingSpace::minimal() const
{
    Mapping m;
    m.l1Tile.fill(1);
    m.l2Tile.fill(1);
    m.spatialX = spatialChoices_[0];
    m.spatialY = spatialChoices_.size() > 1 ? spatialChoices_[1]
                                            : spatialChoices_[0];
    repair(m);
    assert(isValid(m));
    return m;
}

Mapping
MappingSpace::random(common::Rng &rng) const
{
    Mapping m;
    for (int d = 0; d < kNumDims; ++d) {
        m.l1Tile[d] = rng.pick(ladders_[d]);
        m.l2Tile[d] = rng.pick(ladders_[d]);
        if (m.l2Tile[d] < m.l1Tile[d])
            std::swap(m.l1Tile[d], m.l2Tile[d]);
    }
    m.spatialX = rng.pick(spatialChoices_);
    do {
        m.spatialY = rng.pick(spatialChoices_);
    } while (m.spatialY == m.spatialX && spatialChoices_.size() > 1);
    std::iota(m.order.begin(), m.order.end(), 0);
    for (std::size_t i = kNumDims - 1; i > 0; --i) {
        const std::size_t j = rng.uniformInt(i + 1);
        std::swap(m.order[i], m.order[j]);
    }
    assert(isValid(m));
    return m;
}

Mapping
MappingSpace::mutate(const Mapping &m, common::Rng &rng) const
{
    // m is repaired, so every facet this move leaves alone is valid
    // already; repairing the one it touched is all repair() would do.
    Mapping out = m;
    // The tile moves keep both levels on the ladder; repair() would
    // only restore l1 <= l2 on the moved dimension.
    const auto orderTiles = [&out](int d) {
        if (out.l1Tile[d] > out.l2Tile[d])
            std::swap(out.l1Tile[d], out.l2Tile[d]);
    };
    switch (rng.uniformInt(std::uint64_t{5})) {
      case 0: { // L1 tile step
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        const auto &ladder = ladders_[d];
        auto it = std::lower_bound(ladder.begin(), ladder.end(),
                                   out.l1Tile[d]);
        std::size_t idx = static_cast<std::size_t>(it - ladder.begin());
        if (rng.bernoulli(0.5) && idx + 1 < ladder.size())
            ++idx;
        else if (idx > 0)
            --idx;
        out.l1Tile[d] = ladder[idx];
        orderTiles(d);
        break;
      }
      case 1: { // L2 tile step
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        const auto &ladder = ladders_[d];
        auto it = std::lower_bound(ladder.begin(), ladder.end(),
                                   out.l2Tile[d]);
        std::size_t idx = static_cast<std::size_t>(it - ladder.begin());
        if (rng.bernoulli(0.5) && idx + 1 < ladder.size())
            ++idx;
        else if (idx > 0)
            --idx;
        out.l2Tile[d] = ladder[idx];
        orderTiles(d);
        break;
      }
      case 2: { // reassign a spatial dim
        if (rng.bernoulli(0.5))
            out.spatialX = rng.pick(spatialChoices_);
        else
            out.spatialY = rng.pick(spatialChoices_);
        separateSpatial(out);
        break;
      }
      case 3: { // swap two loop-order slots (stays a permutation)
        const std::size_t i = rng.uniformInt(std::uint64_t{kNumDims});
        const std::size_t j = rng.uniformInt(std::uint64_t{kNumDims});
        std::swap(out.order[i], out.order[j]);
        break;
      }
      default: { // random jump on one tile dim (both levels)
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        out.l1Tile[d] = rng.pick(ladders_[d]);
        out.l2Tile[d] = rng.pick(ladders_[d]);
        orderTiles(d);
        break;
      }
    }
#ifndef NDEBUG
    Mapping repaired = out;
    repair(repaired);
    assert(repaired == out && isValid(out));
#endif
    return out;
}

Mapping
MappingSpace::crossover(const Mapping &a, const Mapping &b,
                        common::Rng &rng) const
{
    Mapping child;
    for (int d = 0; d < kNumDims; ++d) {
        const Mapping &src = rng.bernoulli(0.5) ? a : b;
        child.l1Tile[d] = src.l1Tile[d];
        child.l2Tile[d] = src.l2Tile[d];
    }
    child.spatialX = rng.bernoulli(0.5) ? a.spatialX : b.spatialX;
    child.spatialY = rng.bernoulli(0.5) ? a.spatialY : b.spatialY;
    child.order = rng.bernoulli(0.5) ? a.order : b.order;
    repair(child);
    assert(isValid(child));
    return child;
}

bool
MappingSpace::repair(Mapping &m) const
{
    bool changed = false;
    for (int d = 0; d < kNumDims; ++d) {
        const std::int64_t l1 = snapToLadder(d, std::clamp<std::int64_t>(
            m.l1Tile[d], 1, extents_[d]));
        const std::int64_t l2 = snapToLadder(d, std::clamp<std::int64_t>(
            m.l2Tile[d], 1, extents_[d]));
        if (l1 != m.l1Tile[d] || l2 != m.l2Tile[d])
            changed = true;
        m.l1Tile[d] = std::min(l1, l2);
        m.l2Tile[d] = std::max(l1, l2);
    }
    if (separateSpatial(m))
        changed = true;
    // Restore a valid permutation if duplicated entries crept in.
    std::array<bool, kNumDims> seen{};
    bool perm_ok = true;
    for (int d = 0; d < kNumDims; ++d) {
        if (m.order[d] < 0 || m.order[d] >= kNumDims ||
            seen[m.order[d]]) {
            perm_ok = false;
            break;
        }
        seen[m.order[d]] = true;
    }
    if (!perm_ok) {
        std::iota(m.order.begin(), m.order.end(), 0);
        changed = true;
    }
    return changed;
}

bool
MappingSpace::isValid(const Mapping &m) const
{
    for (int d = 0; d < kNumDims; ++d) {
        if (m.l1Tile[d] < 1 || m.l1Tile[d] > m.l2Tile[d] ||
            m.l2Tile[d] > extents_[d])
            return false;
    }
    if (m.spatialX < 0 || m.spatialX >= kNumDims || m.spatialY < 0 ||
        m.spatialY >= kNumDims)
        return false;
    std::array<bool, kNumDims> seen{};
    for (int d = 0; d < kNumDims; ++d) {
        if (m.order[d] < 0 || m.order[d] >= kNumDims || seen[m.order[d]])
            return false;
        seen[m.order[d]] = true;
    }
    return true;
}

} // namespace unico::mapping
