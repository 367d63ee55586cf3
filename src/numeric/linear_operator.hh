/**
 * @file
 * Abstract SPD/general linear operators and preconditioners.
 *
 * The iterative solvers and implicit integrators only ever need two
 * things from a system matrix: y = A x (possibly accumulated) and its
 * diagonal. LinearOperator captures exactly that, so the same solver
 * runs against a stored CsrMatrix (CsrOperator) or a matrix-free
 * 7-point grid stencil (GridStencilOperator in grid_stencil.hh)
 * without assembling CSR index arrays on the grid hot path.
 *
 * Preconditioners are first-class objects so a caller that solves
 * one system many times (an impulse build's columns, an implicit
 * integrator's CG fallback) builds one once and reuses it. There are
 * two kinds:
 *
 *  - Jacobi: diagonal scaling; every operator offers it.
 *  - Multigrid: a geometric V-cycle (multigrid.hh), offered only by
 *    operators with grid planes to coarsen (GridStencilOperator, a
 *    grid StackModel's operator).
 *
 * Fixed symmetric systems are factored instead (sparse_cholesky.hh,
 * direct_solve.hh); CG runs where no factor is kept.
 */

#ifndef IRTHERM_NUMERIC_LINEAR_OPERATOR_HH
#define IRTHERM_NUMERIC_LINEAR_OPERATOR_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/sparse.hh"

namespace irtherm
{

/** Preconditioner selection for the SPD solvers. */
enum class PreconditionerKind
{
    Jacobi,    ///< diagonal scaling
    Multigrid, ///< geometric V-cycle (grid planes only; degrades to
               ///< Jacobi on irregular CSR networks)
};

/** Applies z = M^-1 r for a fixed M. */
class Preconditioner
{
  public:
    virtual ~Preconditioner() = default;

    /** z = M^-1 r. @p z is resized as needed. */
    virtual void apply(const std::vector<double> &r,
                       std::vector<double> &z) const = 0;

    /** What this object is, which may differ from the kind that was
     *  requested (a Multigrid request on a CSR matrix is Jacobi). */
    virtual PreconditionerKind kind() const = 0;
};

/** z = D^-1 r. */
class JacobiPreconditioner final : public Preconditioner
{
  public:
    /** @p diag entries must be non-zero. */
    explicit JacobiPreconditioner(const std::vector<double> &diag);

    void apply(const std::vector<double> &r,
               std::vector<double> &z) const override;
    PreconditionerKind kind() const override
    {
        return PreconditionerKind::Jacobi;
    }

  private:
    std::vector<double> invDiag;
};

/** Minimal matvec interface shared by CSR and matrix-free operators. */
class LinearOperator
{
  public:
    virtual ~LinearOperator() = default;

    virtual std::size_t rows() const = 0;
    virtual std::size_t cols() const = 0;

    /** y = A x (overwrite; @p y is resized as needed). */
    virtual void apply(const std::vector<double> &x,
                       std::vector<double> &y) const = 0;

    /** y += alpha * A x. @pre y.size() == rows() */
    virtual void applyAccumulate(const std::vector<double> &x,
                                 std::vector<double> &y,
                                 double alpha) const = 0;

    virtual std::vector<double> diagonal() const = 0;

    /**
     * Preconditioner of the requested kind, or Jacobi when this
     * operator cannot provide it; its kind() says what was built.
     * Never null. The base operator offers only Jacobi. The operator
     * must outlive the returned object.
     */
    virtual std::unique_ptr<Preconditioner>
    makePreconditioner(PreconditionerKind kind) const;
};

/**
 * LinearOperator view over a CsrMatrix (not owned; must outlive). It
 * has no grid structure to coarsen, so every request builds Jacobi,
 * which owns its data and may outlive this view and the matrix.
 */
class CsrOperator final : public LinearOperator
{
  public:
    explicit CsrOperator(const CsrMatrix &m) : m(m) {}

    std::size_t rows() const override { return m.rows(); }
    std::size_t cols() const override { return m.cols(); }

    void apply(const std::vector<double> &x,
               std::vector<double> &y) const override;
    void applyAccumulate(const std::vector<double> &x,
                         std::vector<double> &y,
                         double alpha) const override;
    std::vector<double> diagonal() const override;

    const CsrMatrix &matrix() const { return m; }

  private:
    const CsrMatrix &m;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_LINEAR_OPERATOR_HH
