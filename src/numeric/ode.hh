/**
 * @file
 * Time integrators for the linear thermal ODE  C dT/dt = P - G T.
 *
 * Three integrators with different stability/cost tradeoffs:
 *
 *  - Rk4Integrator: explicit adaptive Runge-Kutta 4 with step
 *    doubling, the classic HotSpot scheme. Best for block-mode
 *    networks (hundreds of nodes, moderate stiffness).
 *  - BackwardEulerIntegrator: L-stable implicit method with a fixed
 *    step; unconditionally stable on stiff grid-mode networks.
 *  - CrankNicolsonIntegrator: second-order implicit; used by the
 *    reference FD solver so that validation runs through an
 *    independent scheme.
 *
 * The implicit integrators take a stored CsrMatrix (a grid stencil
 * reaches them through GridStencilOperator::toCsr()). Their system
 * matrices never change between steps, so they factor a symmetric
 * system once (sparse Cholesky within kDirectFactorCap,
 * direct_solve.hh) and answer every step with two triangular solves
 * plus robustSolve's residual check.
 * A system that does not factor, a non-symmetric system, and any
 * direct answer that fails its check go through Jacobi-preconditioned
 * CG (BiCGSTAB when non-symmetric) with the verified fallback chain
 * behind it; the preconditioner is built once, on first use, and
 * reused with a persistent CG workspace and rhs scratch — the steady
 * advance() loops allocate nothing.
 *
 * Power is held constant across one advance() call, matching how the
 * simulator drives the network (one power vector per trace sample).
 */

#ifndef IRTHERM_NUMERIC_ODE_HH
#define IRTHERM_NUMERIC_ODE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/iterative.hh"
#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"
#include "obs/metrics.hh"

namespace irtherm
{

/** An implicit integrator's factored step (defined in ode.cc). */
class DirectStep;

/** Tuning knobs for the adaptive RK4 integrator. */
struct Rk4Options
{
    double absTolerance = 1e-3;     ///< accepted per-step error (K)
    double minStep = 1e-9;          ///< smallest sub-step (s)
    double initialStep = 1e-5;      ///< first sub-step guess (s)
};

/**
 * Adaptive explicit RK4 with step doubling.
 *
 * Each trial step is computed once at h and once as two steps of
 * h/2; the Richardson difference estimates the local error and the
 * step is grown or shrunk to track the tolerance.
 */
class Rk4Integrator
{
  public:
    /**
     * @param g            conductance matrix (kept by reference;
     *                     must outlive the integrator)
     * @param capacitance  per-node thermal capacitance, all > 0
     */
    Rk4Integrator(const CsrMatrix &g, std::vector<double> capacitance,
                  const Rk4Options &opts = {});
    /** A temporary @p g would dangle. */
    Rk4Integrator(const CsrMatrix &&g, std::vector<double> capacitance,
                  const Rk4Options &opts = {}) = delete;

    /** Advance @p temps by @p dt seconds under constant @p power. */
    void advance(std::vector<double> &temps,
                 const std::vector<double> &power, double dt);

    /** Sub-steps taken across all advance() calls (diagnostics). */
    std::size_t totalSteps() const { return steps; }

  private:
    /** out = invC .* (power - G temps) */
    void derivative(const std::vector<double> &temps,
                    const std::vector<double> &power,
                    std::vector<double> &out);

    /**
     * One classical RK4 step of size h from y into out; @p dy is the
     * derivative at y (its first stage), which the caller already
     * holds: the full step and the first half step share it.
     */
    void rk4Step(const std::vector<double> &y,
                 const std::vector<double> &dy,
                 const std::vector<double> &power, double h,
                 std::vector<double> &out);

    const CsrMatrix &g;
    std::vector<double> invC;
    Rk4Options opts;
    double lastStep;
    std::size_t steps = 0;

    // Scratch reused across every sub-step; advance() swaps rather
    // than copies, so the steady loop allocates nothing. dTemps is
    // the derivative at the current state, kept across rejected
    // trials.
    std::vector<double> dTemps, k1, k2, k3, k4, tmp;
    std::vector<double> full, half, half2;

    // Process-wide telemetry (aggregated across all instances).
    obs::Counter &stepsMetric;
    obs::Counter &rejectedMetric;
    obs::Histogram &stepSizeHist;
    obs::Histogram &errorHist;
};

/**
 * Backward Euler with a fixed step:
 *   (C/dt + G) T_{n+1} = (C/dt) T_n + P
 * The system matrix is formed once, as a copy. A symmetric system is
 * factored once and each step is two triangular solves, verified;
 * otherwise (and for any step whose direct answer fails
 * verification) each step is one warm-started preconditioned CG
 * solve reusing the same workspace.
 */
class BackwardEulerIntegrator
{
  public:
    BackwardEulerIntegrator(const CsrMatrix &g,
                            std::vector<double> capacitance, double dt,
                            const IterativeOptions &solver = {});

    ~BackwardEulerIntegrator();

    /** Fixed step size this integrator was built for. */
    double stepSize() const { return dt; }

    /** True when steps solve through the sparse factorization. */
    bool factored() const { return direct != nullptr; }

    /** Advance exactly one step of stepSize(). */
    void step(std::vector<double> &temps,
              const std::vector<double> &power);

    /**
     * Advance by @p duration, which must be an integer multiple of
     * dt (within 1e-6 relative tolerance); takes exactly
     * round(duration / dt) steps. A shortened partial final step is
     * not supported — a non-multiple duration is fatal().
     */
    void advance(std::vector<double> &temps,
                 const std::vector<double> &power, double duration);

  private:
    CsrMatrix systemCsr; ///< C/dt + G
    const CsrOperator system{systemCsr};

    std::vector<double> capOverDt;
    double dt;
    IterativeOptions solverOpts;
    bool symmetric = true;            ///< CG vs BiCGSTAB dispatch

    std::unique_ptr<DirectStep> direct; ///< null: every step is CG
    /** Built once, on the first CG step (CG path). */
    std::unique_ptr<Preconditioner> precond;
    CgWorkspace ws;
    std::vector<double> rhs;

    obs::Counter &solvesMetric;
    obs::Histogram &iterationsHist;
    obs::Histogram &warmStartHist;
    obs::Gauge &residualGauge;
};

/**
 * Crank-Nicolson with a fixed step:
 *   (C/dt + G/2) T_{n+1} = (C/dt - G/2) T_n + P
 * Same caching structure as BackwardEulerIntegrator.
 */
class CrankNicolsonIntegrator
{
  public:
    /** @p g is kept by reference and must outlive the integrator. */
    CrankNicolsonIntegrator(const CsrMatrix &g,
                            std::vector<double> capacitance, double dt,
                            const IterativeOptions &solver = {});
    /** A temporary @p g would dangle. */
    CrankNicolsonIntegrator(const CsrMatrix &&g,
                            std::vector<double> capacitance, double dt,
                            const IterativeOptions &solver = {}) = delete;

    ~CrankNicolsonIntegrator();

    double stepSize() const { return dt; }

    /** True when steps solve through the sparse factorization. */
    bool factored() const { return direct != nullptr; }

    /** Advance exactly one step of stepSize(). */
    void step(std::vector<double> &temps,
              const std::vector<double> &power);

  private:
    const CsrOperator gOp; ///< the caller's G (explicit half of the rhs)
    CsrMatrix systemCsr;   ///< C/dt + G/2
    const CsrOperator system{systemCsr};

    std::vector<double> capOverDt;
    double dt;
    IterativeOptions solverOpts;
    bool symmetric = true;            ///< CG vs BiCGSTAB dispatch

    std::unique_ptr<DirectStep> direct; ///< null: every step is CG
    /** Built once, on the first CG step (CG path). */
    std::unique_ptr<Preconditioner> precond;
    CgWorkspace ws;
    std::vector<double> rhs;

    obs::Counter &solvesMetric;
    obs::Histogram &iterationsHist;
};

/**
 * Return a copy of @p g with @p extra added to its diagonal.
 * Missing diagonal entries are created.
 */
CsrMatrix addDiagonal(const CsrMatrix &g, const std::vector<double> &extra);

} // namespace irtherm

#endif // IRTHERM_NUMERIC_ODE_HH
