/**
 * @file
 * Checked direct solves: when a sparse Cholesky factor is held, and
 * how each of its answers is trusted.
 *
 * Two callers solve one fixed SPD matrix many times: the implicit
 * integrators (C/dt + s·G, one answer per step of a trace) and the
 * steady impulse build (G, one answer per floorplan block). Both
 * factor it through factorWithinCap, which declines a factor over
 * kDirectFactorCap or one whose pivots fail, and put every answer
 * through DirectCheck, the independent residual check robustSolve
 * applies to its tiers. A declined factor or a rejected answer sends
 * the caller to its iterative path; neither is fatal.
 */

#ifndef IRTHERM_NUMERIC_DIRECT_SOLVE_HH
#define IRTHERM_NUMERIC_DIRECT_SOLVE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"
#include "numeric/sparse_cholesky.hh"
#include "obs/metrics.hh"

namespace irtherm
{

/**
 * Largest Cholesky factor, in entries of L, that a direct solve
 * holds: 32 MiB of doubles, plus the supernodes' row lists and the
 * upper triangles inside their diagonal panels (DESIGN §7). A matrix
 * whose symbolic factor is larger is solved iteratively. EV6 at grid
 * 64 fits under OIL-SILICON (2.2M entries) but not under AIR-SINK
 * (4.9M).
 */
inline constexpr std::size_t kDirectFactorCap = std::size_t{1} << 22;

/**
 * Order and factor @p a, or return null: when its symbolic factor is
 * over kDirectFactorCap (debug-logged; a matrix with more than twice
 * the cap in entries skips the ordering), or when a pivot fails
 * (counted in numeric.chol.rejected and warned about: "<who>: system
 * does not factor"). The work runs in a numeric.chol.factor span; a
 * success counts numeric.chol.factors. @p who names the caller in
 * diagnostics. @pre a is symmetric
 */
std::unique_ptr<SparseCholesky> factorWithinCap(const CsrMatrix &a,
                                                const char *who);

/**
 * The check every direct answer faces before it is used. Holds its
 * scratch and counters, so a per-step check allocates nothing.
 */
class DirectCheck
{
  public:
    /** @p who names the caller in the rejection warning. */
    explicit DirectCheck(const char *who);

    /**
     * Accept @p x as the answer of A x = @p b: finite and ||b - A x||
     * within robustSolve's bound at @p tolerance (checkSolution).
     * When the chol.corrupt fault point fires, @p x is poisoned first.
     * A pass counts numeric.chol.solves; a failure counts
     * numeric.chol.rejected and warns "<who>: direct step rejected".
     */
    bool accept(const LinearOperator &a, const std::vector<double> &b,
                std::vector<double> &x, double tolerance);

    /** ||b - A x|| of the last answer checked. */
    double residualNorm() const { return residual; }

  private:
    const char *who;
    std::vector<double> resid; ///< check scratch
    double residual = 0.0;
    obs::Counter &solves;
    obs::Counter &rejected;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_DIRECT_SOLVE_HH
