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
 * Determinism: the BLAS-1 reductions (dot, norm2) accumulate in
 * fixed-size chunks combined in ascending order in both the serial
 * and thread-pooled paths, so results are bit-identical regardless
 * of thread count. See base/thread_pool.hh for the contract.
 */

#ifndef IRTHERM_NUMERIC_ITERATIVE_HH
#define IRTHERM_NUMERIC_ITERATIVE_HH

#include <cstddef>
#include <functional>
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

/** True when forEachRange() over @p n elements runs on the pool. */
bool rangeRunsPooled(std::size_t n);

/** forEachRange()'s pooled path. @pre rangeRunsPooled(n) */
void forEachRangePooled(
    std::size_t n, const std::function<void(std::size_t, std::size_t)> &fn);

/**
 * Run an elementwise kernel over [0, n) on the shared ThreadPool
 * above a size threshold, serially below it. The kernel receives
 * disjoint [begin, end) ranges; ranges depend only on n, so parallel
 * and serial execution visit identical partitions. The serial path
 * calls the kernel directly: a std::function would heap-allocate
 * most closures, and a multigrid cycle runs hundreds of kernels.
 */
template <typename Fn>
void
forEachRange(std::size_t n, const Fn &fn)
{
    if (rangeRunsPooled(n))
        forEachRangePooled(n, fn);
    else
        fn(0, n);
}

} // namespace irtherm

#endif // IRTHERM_NUMERIC_ITERATIVE_HH
