/**
 * @file
 * Matrix-free 7-point stencil operator on a structured nx*ny*nz grid.
 *
 * Grid-mode thermal networks are regular: every cell couples to its
 * six axis neighbours and to ground. Storing that as CSR costs three
 * index arrays and a gather per non-zero; storing it as per-axis link
 * arrays (one conductance per face between neighbouring cells) plus a
 * diagonal lets the matvec walk memory linearly with no column
 * indices at all. A y = A x row is
 *
 *   y[i] = diag[i] x[i] - sum over faces( g_face * x[neighbour] )
 *
 * which matches the sign convention of conductance stamping (+g on
 * both diagonals, -g off-diagonal); stampLink* maintains it.
 *
 * Layers that are not laterally coupled (e.g. a per-column fluid-film
 * layer on top of the silicon) are representable with zero lateral
 * links, so FdSolver's silicon + oil-film stack maps onto one
 * (nz+1)-deep stencil.
 *
 * The operator implements LinearOperator, so CG accepts it
 * interchangeably with a stored CsrMatrix; makePreconditioner()
 * provides the geometric V-cycle over its planes.
 */

#ifndef IRTHERM_NUMERIC_GRID_STENCIL_HH
#define IRTHERM_NUMERIC_GRID_STENCIL_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"

namespace irtherm
{

/** Matrix-free symmetric 7-point operator; see file comment. */
class GridStencilOperator final : public LinearOperator
{
  public:
    GridStencilOperator(std::size_t nx, std::size_t ny, std::size_t nz);

    std::size_t nx() const { return nx_; }
    std::size_t ny() const { return ny_; }
    std::size_t nz() const { return nz_; }

    std::size_t rows() const override { return diag.size(); }
    std::size_t cols() const override { return diag.size(); }

    std::size_t
    cellIndex(std::size_t ix, std::size_t iy, std::size_t iz) const
    {
        return (iz * ny_ + iy) * nx_ + ix;
    }

    /**
     * Stamp a conductance between (ix, iy, iz) and its +x / +y / +z
     * neighbour: accumulates +g on both cell diagonals and g on the
     * shared face (the -g off-diagonals of the matvec).
     */
    void stampLinkX(std::size_t ix, std::size_t iy, std::size_t iz,
                    double g);
    void stampLinkY(std::size_t ix, std::size_t iy, std::size_t iz,
                    double g);
    void stampLinkZ(std::size_t ix, std::size_t iy, std::size_t iz,
                    double g);

    /** Stamp a conductance from a cell to ground: +g on the diagonal. */
    void stampGround(std::size_t ix, std::size_t iy, std::size_t iz,
                     double g);

    /** Raw diagonal add at a flat cell index (e.g. C/dt shifts). */
    void addToDiagonal(std::size_t cell, double v);

    void apply(const std::vector<double> &x,
               std::vector<double> &y) const override;
    void applyAccumulate(const std::vector<double> &x,
                         std::vector<double> &y,
                         double alpha) const override;
    std::vector<double> diagonal() const override;

    /** Multigrid builds a geometric V-cycle (multigrid.hh); Jacobi
     *  scales by the diagonal. */
    std::unique_ptr<Preconditioner>
    makePreconditioner(PreconditionerKind kind) const override;

    /**
     * Assemble the equivalent CSR matrix (columns sorted within each
     * row). This is how a stencil reaches the implicit integrators,
     * which factor their fixed system: FdSolver's Crank-Nicolson
     * holds the result for the whole run.
     */
    CsrMatrix toCsr() const;

  private:
    friend class MultigridPreconditioner;
    friend class BorderedStencil;

    // Flat indices into the per-axis link arrays for the face
    // between a cell and its +axis neighbour.
    std::size_t
    linkX(std::size_t ix, std::size_t iy, std::size_t iz) const
    {
        return (iz * ny_ + iy) * (nx_ - 1) + ix;
    }
    std::size_t
    linkY(std::size_t ix, std::size_t iy, std::size_t iz) const
    {
        return (iz * (ny_ - 1) + iy) * nx_ + ix;
    }
    std::size_t
    linkZ(std::size_t ix, std::size_t iy, std::size_t iz) const
    {
        return (iz * ny_ + iy) * nx_ + ix;
    }

    std::size_t nx_, ny_, nz_;
    std::vector<double> diag;
    std::vector<double> gx; ///< (nx-1) * ny * nz faces
    std::vector<double> gy; ///< nx * (ny-1) * nz faces
    std::vector<double> gz; ///< nx * ny * (nz-1) faces
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_GRID_STENCIL_HH
