/**
 * @file
 * Multigrid for a layered grid network with a few irregular nodes.
 *
 * A grid-mode stack network is almost a 7-point stencil: every layer
 * holds the same nx*ny die-footprint cells, lateral links join
 * neighbouring cells of a layer and vertical links join the same cell
 * of consecutive layers. What breaks the stencil is a handful of
 * package nodes outside the footprint (the spreader, sink and PCB
 * ring strips). BorderedStencil splits such a CSR matrix into
 *
 *  - planes: one z-plane of a GridStencilOperator per layer, whose
 *    block is exactly the matrix's principal submatrix over the
 *    cells (ground and strip couplings live in its diagonal); and
 *  - border: every other node, as a small dense block A_bb plus its
 *    sparse coupling A_bp to the plane cells.
 *
 * The split is read off the matrix, not rebuilt from geometry, so the
 * planes plus the border hold every stored entry of a symmetric
 * matrix bit for bit (zero stencil links stand for absent entries),
 * and a matrix entry the stencil cannot hold is an error, not a
 * silent approximation.
 *
 * BorderedPreconditioner is a symmetric multiplicative Schwarz step
 * over that split: an exact border solve, one application of a
 * preconditioner for the planes (a multigrid V-cycle), then the exact
 * border solve again. With a symmetric plane step the whole step is
 * symmetric, so CG applies; with no border it is the plane step.
 */

#ifndef IRTHERM_NUMERIC_BORDERED_STENCIL_HH
#define IRTHERM_NUMERIC_BORDERED_STENCIL_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/grid_stencil.hh"
#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"

namespace irtherm
{

/**
 * Where the grid planes of a layered network sit in its node order:
 * plane z holds nodes [planeOffsets[z], planeOffsets[z] + nx * ny),
 * x fastest, and lies between planes z-1 and z+1. Every node in no
 * plane is a border node.
 */
struct PlaneLayout
{
    std::size_t nx = 0;
    std::size_t ny = 0;
    std::vector<std::size_t> planeOffsets;
};

/** A square CSR matrix split into stencil planes and a dense border. */
class BorderedStencil
{
  public:
    /**
     * Split @p a along @p layout. fatal() when the layout does not fit
     * the matrix (no planes, overlapping planes, nodes past the end),
     * when an entry between plane cells is not a 7-point link, or when
     * the border is too large to treat densely.
     */
    BorderedStencil(const CsrMatrix &a, const PlaneLayout &layout);

    const PlaneLayout &layout() const { return layout_; }
    std::size_t nodeCount() const { return nodes; }

    /** The plane block as an nx x ny x nz stencil. */
    const GridStencilOperator &planes() const { return planes_; }

    /** Border nodes, ascending. */
    const std::vector<std::size_t> &borderNodes() const
    {
        return border;
    }

    /** A_bb, row-major over borderNodes(). */
    const std::vector<double> &borderBlock() const { return abb; }

    /**
     * A_bp in CSR: row k lists the plane cells (flat stencil indices)
     * coupled to border node k, in ascending node order, with the
     * matrix values. A_pb is its transpose.
     */
    const std::vector<std::size_t> &couplingRows() const
    {
        return cpRow;
    }
    const std::vector<std::size_t> &couplingCells() const
    {
        return cpCell;
    }
    const std::vector<double> &couplingValues() const { return cpVal; }

  private:
    PlaneLayout layout_;
    std::size_t nodes = 0;
    GridStencilOperator planes_;
    std::vector<std::size_t> border;
    std::vector<double> abb;
    std::vector<std::size_t> cpRow, cpCell;
    std::vector<double> cpVal;
};

/**
 * z = M^-1 r for the symmetric multiplicative Schwarz step over a
 * BorderedStencil (see file comment):
 *
 *   z_B' = A_bb^-1 r_B
 *   z_P  = P^-1 (r_P - A_pb z_B')
 *   z_B  = A_bb^-1 (r_B - A_bp z_P)
 *
 * where P^-1 is the plane step. Copies what it needs from the view,
 * so the view may be dropped after construction unless the plane step
 * references it (a MultigridPreconditioner does not). Keeps mutable
 * workspaces: one apply at a time per object.
 */
class BorderedPreconditioner final : public Preconditioner
{
  public:
    BorderedPreconditioner(const BorderedStencil &view,
                           std::unique_ptr<Preconditioner> planeStep);

    void apply(const std::vector<double> &r,
               std::vector<double> &z) const override;

    /** The plane step's kind (Multigrid for the stack default). */
    PreconditionerKind kind() const override
    {
        return planeStep->kind();
    }

  private:
    /** zB = A_bb^-1 rB (dense, symmetrized inverse). */
    void solveBorder() const;

    std::size_t nodes = 0;
    std::size_t planeCells = 0; ///< nx * ny
    std::vector<std::size_t> planeOffsets;
    std::vector<std::size_t> border;
    std::vector<double> abbInv;
    std::vector<std::size_t> cpRow, cpCell;
    std::vector<double> cpVal;
    std::unique_ptr<Preconditioner> planeStep;
    mutable std::vector<double> rP, zP, rB, zB;
};

/**
 * The stack default: BorderedPreconditioner over a multigrid V-cycle
 * on the planes of @p a split along @p layout. fatal() as
 * BorderedStencil and MultigridPreconditioner do.
 */
std::unique_ptr<Preconditioner>
makeBorderedMultigrid(const CsrMatrix &a, const PlaneLayout &layout);

} // namespace irtherm

#endif // IRTHERM_NUMERIC_BORDERED_STENCIL_HH
