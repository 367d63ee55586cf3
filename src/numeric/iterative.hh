/**
 * @file
 * Iterative linear solvers for large sparse SPD systems.
 *
 * Thermal conductance matrices (with at least one path to ambient)
 * are symmetric positive definite, so preconditioned conjugate
 * gradient is the workhorse for grid-mode steady state and implicit
 * transient steps. The solvers operate on the LinearOperator
 * abstraction, so a stored CsrMatrix and a matrix-free grid stencil
 * run through identical code; CsrMatrix overloads are kept for
 * callers that hold a concrete matrix.
 *
 * Summation order: the reductions (dot, norm2 and CG's fused
 * residual update) sum 1024-element chunks into partial sums and add
 * the partials in ascending chunk order. Every solver answer's bits
 * depend on that order, so it stays fixed (a test pins it).
 */

#ifndef IRTHERM_NUMERIC_ITERATIVE_HH
#define IRTHERM_NUMERIC_ITERATIVE_HH

#include <cstddef>
#include <vector>

#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"

namespace irtherm
{

/** Outcome of an iterative solve. */
struct IterativeResult
{
    std::vector<double> x;      ///< solution vector
    std::size_t iterations = 0; ///< iterations actually used
    double residualNorm = 0.0;  ///< final ||b - Ax||_2
    /** ||b - A x0||_2 before the first iteration: how good the
     *  starting guess was (warm-start quality telemetry). */
    double initialResidualNorm = 0.0;
    bool converged = false;     ///< tolerance met within budget
};

/** Options shared by the iterative solvers. */
struct IterativeOptions
{
    double tolerance = 1e-10;   ///< relative to ||b||_2
    std::size_t maxIterations = 20000;
    /** Preconditioner built when the caller does not supply one:
     *  the V-cycle where the operator has grid planes, Jacobi
     *  elsewhere (LinearOperator::makePreconditioner). */
    PreconditionerKind preconditioner = PreconditionerKind::Multigrid;
};

/**
 * Reusable scratch vectors for conjugateGradient(). Callers that
 * solve many same-sized systems (the implicit integrators) keep one
 * of these so the steady-state advance loop allocates nothing.
 */
struct CgWorkspace
{
    std::vector<double> r, z, p, ap;
};

/**
 * Preconditioned conjugate gradient for an SPD operator.
 *
 * @param a        system operator (must be SPD; not checked here)
 * @param b        right-hand side
 * @param x0       starting guess (empty means zero)
 * @param opts     tolerance / iteration budget / preconditioner kind
 * @param precond  preconditioner to use; null means build one from
 *                 @p opts via a.makePreconditioner()
 * @param ws       scratch buffers to reuse; null means allocate
 */
IterativeResult conjugateGradient(const LinearOperator &a,
                                  const std::vector<double> &b,
                                  const std::vector<double> &x0 = {},
                                  const IterativeOptions &opts = {},
                                  const Preconditioner *precond = nullptr,
                                  CgWorkspace *ws = nullptr);

/** CsrMatrix convenience overload of the operator form above. */
IterativeResult conjugateGradient(const CsrMatrix &a,
                                  const std::vector<double> &b,
                                  const std::vector<double> &x0 = {},
                                  const IterativeOptions &opts = {});

/**
 * Jacobi-preconditioned BiCGSTAB for general (non-symmetric) systems.
 * Needed once fluid advection enters the network: upwind advection
 * stamps are one-sided, so microchannel and caloric-heating models
 * produce non-symmetric conductance matrices that CG cannot handle.
 * @p opts.preconditioner is not read: a CSR matrix offers only
 * Jacobi.
 */
IterativeResult biCgStab(const CsrMatrix &a,
                         const std::vector<double> &b,
                         const std::vector<double> &x0 = {},
                         const IterativeOptions &opts = {});

/** Euclidean norm. */
double norm2(const std::vector<double> &v);

/** Dot product. @pre a.size() == b.size() */
double dot(const std::vector<double> &a, const std::vector<double> &b);

} // namespace irtherm

#endif // IRTHERM_NUMERIC_ITERATIVE_HH
