/**
 * @file
 * Software mapping representation for the spatial template.
 *
 * A mapping fixes, for the canonical 7-D loop nest of a TensorOp
 * (Fig. 1, right): the per-PE L1 tile, the L2 tile staged in the
 * global buffer, which two loop dimensions are unrolled spatially
 * across the PE array, and the temporal loop order at the L2/DRAM
 * boundary. This is the loop split / reorder / spatial-bind subset
 * of the FlexTensor primitive space that the cost models consume.
 */

#ifndef UNICO_MAPPING_MAPPING_HH
#define UNICO_MAPPING_MAPPING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "workload/tensor_op.hh"

namespace unico::mapping {

/** Canonical loop-dimension indices of the 7-D nest. */
enum LoopDim : int {
    DimN = 0,
    DimK = 1,
    DimC = 2,
    DimY = 3,
    DimX = 4,
    DimR = 5,
    DimS = 6,
    kNumDims = 7,
};

/** Loop dimension short name ("N", "K", ...). */
const char *dimName(int dim);

/** A complete software mapping of one operator. */
struct Mapping
{
    /** Per-PE tile resident in the private L1 scratchpad. */
    std::array<std::int64_t, kNumDims> l1Tile{1, 1, 1, 1, 1, 1, 1};

    /** Tile staged in the shared L2 buffer (>= l1Tile per dim). */
    std::array<std::int64_t, kNumDims> l2Tile{1, 1, 1, 1, 1, 1, 1};

    /** Loop dim unrolled across the PE array's x axis. */
    int spatialX = DimK;

    /** Loop dim unrolled across the PE array's y axis. */
    int spatialY = DimX;

    /** Temporal loop order at the DRAM/L2 boundary (outermost
     *  first); a permutation of 0..6. */
    std::array<int, kNumDims> order{0, 1, 2, 3, 4, 5, 6};

    /** Human-readable summary. */
    std::string describe() const;

    /** Structural equality. */
    bool operator==(const Mapping &other) const;
};

/**
 * The mapping search space for a specific operator: the tile ladders,
 * validity repair, and the random/mutate/crossover operators used by
 * every search engine.
 */
class MappingSpace
{
  public:
    explicit MappingSpace(const workload::TensorOp &op);

    /** The operator this space maps. */
    const workload::TensorOp &op() const { return op_; }

    /** Loop extent of dimension @p dim. */
    std::int64_t extent(int dim) const { return extents_[dim]; }

    /** Candidate tile sizes for @p dim (ascending, ends at extent). */
    const std::vector<std::int64_t> &
    tileLadder(int dim) const
    {
        return ladders_[dim];
    }

    /**
     * The minimal mapping: all tiles 1, identity loop order, default
     * spatial dims. It has no data reuse but fits any buffer, so
     * search engines use it as an always-feasible starting point.
     */
    Mapping minimal() const;

    /** Loop dims the spatial unroll picks from (at least two). */
    const std::vector<int> &
    spatialChoices() const
    {
        return spatialChoices_;
    }

    /** Uniform random valid mapping. */
    Mapping random(common::Rng &rng) const;

    /**
     * Local mutation of one mapping facet. @p m must be repaired (a
     * repair() of it would change nothing), as every mapping
     * minimal(), random(), crossover() and mutate() return is. Only
     * the moved facet is fixed up, so the result is repaired too and
     * equals the move followed by a full repair().
     */
    Mapping mutate(const Mapping &m, common::Rng &rng) const;

    /** Crossover of two mappings; always returns valid. */
    Mapping crossover(const Mapping &a, const Mapping &b,
                      common::Rng &rng) const;

    /** Clamp tiles to extents and restore l1 <= l2 and the order
     *  permutation; returns true if anything changed. */
    bool repair(Mapping &m) const;

    /** True if the mapping satisfies all structural invariants. */
    bool isValid(const Mapping &m) const;

  private:
    std::int64_t snapToLadder(int dim, std::int64_t v) const;

    /** Move spatialY off spatialX when they collide; true if moved. */
    bool separateSpatial(Mapping &m) const;

    workload::TensorOp op_;
    std::array<std::int64_t, kNumDims> extents_;
    std::array<std::vector<std::int64_t>, kNumDims> ladders_;
    std::vector<int> spatialChoices_;
};

} // namespace unico::mapping

#endif // UNICO_MAPPING_MAPPING_HH
