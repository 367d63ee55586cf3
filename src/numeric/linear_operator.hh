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
 * Preconditioners are first-class objects so implicit integrators —
 * whose system matrices never change between steps — can build one
 * once in their constructor and reuse it for every solve instead of
 * re-deriving Jacobi diagonals per call:
 *
 *  - Jacobi: diagonal scaling; always available, weakest.
 *  - SSOR: symmetric successive over-relaxation sweeps; ~1 matvec of
 *    extra work per application but cuts CG iterations by several x
 *    on grid Laplacians. Sequential by construction (triangular
 *    sweeps), which keeps it deterministic.
 *  - IC(0): zero-fill incomplete Cholesky; the strongest of the
 *    three on the SPD M-matrices produced by thermal RC assembly.
 *    Construction can break down on general SPD matrices (a pivot
 *    goes non-positive); factories then return null and callers fall
 *    back to SSOR/Jacobi.
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
    Jacobi,    ///< diagonal scaling (the pre-parallel-core default)
    Ssor,      ///< symmetric SOR sweeps
    Ic0,       ///< incomplete Cholesky, zero fill-in
    Multigrid, ///< geometric V-cycle (grid stencils only; degrades
               ///< to Ssor on irregular CSR networks)
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
     *  requested (an Ic0 whose factorization broke down is Ssor). */
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

/**
 * SSOR: M^-1 = w(2-w) (D + wU)^-1 D (D + wL)^-1 over the stored
 * entries of a CSR matrix (columns sorted within each row, as
 * SparseBuilder produces).
 *
 * Keeps its own copies of the strictly lower and strictly upper
 * parts with every entry pre-scaled by w, plus w(2-w) d_i and 1/d_i
 * per row, so the sweeps test no entry for the diagonal and multiply
 * by no w. Independent of the source matrix's lifetime.
 */
class SsorPreconditioner final : public Preconditioner
{
  public:
    /** @param omega relaxation factor in (0, 2). */
    SsorPreconditioner(const CsrMatrix &a, double omega);

    void apply(const std::vector<double> &r,
               std::vector<double> &z) const override;
    PreconditionerKind kind() const override
    {
        return PreconditionerKind::Ssor;
    }

  private:
    /** One strictly triangular part in CSR, values times w. */
    struct Triangle
    {
        std::vector<std::size_t> rowPtr, cols;
        std::vector<double> vals;
    };

    Triangle lower, upper;
    std::vector<double> midScale; ///< w(2-w) d_i
    std::vector<double> invDiag;  ///< 1 / d_i
};

/**
 * IC(0): A ~= L L^T with L restricted to the lower-triangular
 * sparsity of A. Construct through makeIc0() (which reports
 * breakdown by returning null). Owns its factor; independent of the
 * source matrix's lifetime.
 */
class Ic0Preconditioner final : public Preconditioner
{
  public:
    void apply(const std::vector<double> &r,
               std::vector<double> &z) const override;
    PreconditionerKind kind() const override
    {
        return PreconditionerKind::Ic0;
    }

    /** Factor @p a; null when a pivot goes non-positive. */
    static std::unique_ptr<Ic0Preconditioner>
    tryFactor(const CsrMatrix &a);

  private:
    Ic0Preconditioner() = default;

    // L in CSR (rows ascending, cols sorted, diagonal last per row)
    // and L^T in CSR (for the backward solve).
    std::vector<std::size_t> lRowPtr, lCols;
    std::vector<double> lVals;
    std::vector<std::size_t> ltRowPtr, ltCols;
    std::vector<double> ltVals;
    std::size_t n = 0;
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
     * Best preconditioner of the requested kind this operator can
     * provide, degrading gracefully (Ic0 -> Ssor -> Jacobi) when a
     * kind is unsupported or its construction breaks down; its
     * kind() says what was built. Never null. The base operator
     * offers only Jacobi. The operator must outlive the returned
     * object.
     */
    virtual std::unique_ptr<Preconditioner>
    makePreconditioner(PreconditionerKind kind, double ssorOmega) const;
};

/** LinearOperator view over a CsrMatrix (not owned; must outlive). */
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

    /** Multigrid degrades to Ssor (no grid structure to coarsen).
     *  Every CSR preconditioner owns its data, so it may outlive
     *  this view and the matrix. */
    std::unique_ptr<Preconditioner>
    makePreconditioner(PreconditionerKind kind,
                       double ssorOmega) const override;

    const CsrMatrix &matrix() const { return m; }

  private:
    const CsrMatrix &m;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_LINEAR_OPERATOR_HH
