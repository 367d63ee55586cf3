/**
 * @file
 * Verified linear solves with an escalating fallback chain.
 *
 * Fast thermal solvers trade conditioning for speed (Kemper et al.),
 * and oil-silicon stacks can push the model into stiff, near-singular
 * regimes — exactly where an iterative solve quietly returns garbage
 * or diverges. robustSolve() therefore never trusts a single solver:
 * every candidate solution is verified (finite entries, independently
 * recomputed residual within tolerance) and on failure the solve
 * escalates through methods of increasing robustness and cost:
 *
 *   grid stack:     mg-cg -> jacobi-cg -> bicgstab -> dense-lu
 *   other SPD:      jacobi-cg -> bicgstab -> dense-lu
 *   non-symmetric:  jacobi-bicgstab -> dense-lu
 *
 * The primary CG tier runs the configured preconditioner as the
 * operator builds it: the V-cycle where it has grid planes, Jacobi
 * on a plain CSR matrix, which then opens the chain.
 *
 * The dense LU tier is gated on the system dimension (block-mode RC
 * networks, small grids); BiCGSTAB and LU need a stored matrix, so
 * the operator-only overload (matrix-free grid stencils) stops at
 * jacobi-cg unless the caller also supplies a CSR view.
 *
 * Every escalation is counted in `resilience.fallback.*` metrics and
 * recorded on the event trace; exhausting the chain throws
 * NumericError (retryable by the sweep runner).
 */

#ifndef IRTHERM_NUMERIC_ROBUST_SOLVE_HH
#define IRTHERM_NUMERIC_ROBUST_SOLVE_HH

#include <string>

#include "numeric/iterative.hh"
#include "numeric/sparse.hh"

namespace irtherm
{

/** Options for robustSolve(). */
struct RobustSolveOptions
{
    /** Tolerance / budget / preconditioner for the primary tier. */
    IterativeOptions iterative;
    /** True for SPD conductance systems (CG chain); false once
     *  advection makes the matrix non-symmetric (BiCGSTAB chain). */
    bool symmetric = true;
    /** Dense LU is only attempted at or below this dimension. */
    std::size_t maxDenseDimension = 3000;
    /**
     * A tier's answer is accepted when the independently recomputed
     * residual satisfies ||b - Ax|| <= slack * tol * ||b||. The slack
     * absorbs the gap between the recurrence residual CG converges on
     * and the true residual.
     */
    double residualSlack = 10.0;
    /** Label for log / trace entries ("" for anonymous solves). */
    std::string scope;
};

/** What robustSolve() did to produce its answer. */
struct RobustSolveResult
{
    IterativeResult solve; ///< the accepted (verified) solution
    /** 0 when the primary method passed verification; each fallback
     *  escalation adds one. */
    int fallbackTier = 0;
    /** Method that produced the accepted answer ("mg-cg",
     *  "jacobi-cg", "bicgstab", "jacobi-bicgstab", "dense-lu"). */
    std::string method;
    std::size_t tiersTried = 1; ///< methods attempted including winner
};

/** Outcome of the independent acceptance check on one answer. */
struct SolutionCheck
{
    bool finite = false;       ///< every entry of x is finite
    double residualNorm = 0.0; ///< ||b - A x||, recomputed from A
    double bound = 0.0;        ///< slack * tolerance * ||b||
    /** Plain <= so a NaN residual fails too. */
    bool ok() const { return finite && residualNorm <= bound; }
};

/**
 * The check robustSolve applies to every tier's answer, whatever
 * produced it: @p x finite and ||b - A x|| <= slack * tolerance *
 * ||b||. @p resid is scratch (no allocation once sized).
 */
SolutionCheck checkSolution(const LinearOperator &a,
                            const std::vector<double> &b,
                            const std::vector<double> &x,
                            double tolerance, double slack,
                            std::vector<double> &resid);

/**
 * Solve A x = b with verification and the full fallback chain.
 * Throws NumericError when every applicable tier fails.
 */
RobustSolveResult robustSolve(const CsrMatrix &a,
                              const std::vector<double> &b,
                              const std::vector<double> &x0 = {},
                              const RobustSolveOptions &opts = {});

/**
 * Operator form for matrix-free systems (grid stencils). @p csr may
 * be null; when provided it enables the BiCGSTAB and dense LU tiers,
 * otherwise the chain is the primary CG tier -> jacobi-cg only.
 * @p ws is optional CG scratch (reused across tiers).
 */
RobustSolveResult robustSolve(const LinearOperator &a,
                              const CsrMatrix *csr,
                              const std::vector<double> &b,
                              const std::vector<double> &x0 = {},
                              const RobustSolveOptions &opts = {},
                              CgWorkspace *ws = nullptr);

} // namespace irtherm

#endif // IRTHERM_NUMERIC_ROBUST_SOLVE_HH
