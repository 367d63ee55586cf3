#include "numeric/ode.hh"

#include <algorithm>
#include <cmath>

#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "numeric/direct_solve.hh"
#include "numeric/robust_solve.hh"
#include "obs/span.hh"

namespace irtherm
{

namespace
{

void
checkSizes(const CsrMatrix &g, const std::vector<double> &cap)
{
    if (g.rows() != g.cols())
        fatal("integrator: conductance matrix not square");
    if (cap.size() != g.rows())
        fatal("integrator: capacitance size mismatch");
    for (std::size_t i = 0; i < cap.size(); ++i) {
        if (cap[i] <= 0.0)
            fatal("integrator: non-positive capacitance at node ", i);
    }
}

/**
 * One implicit step through the iterative path: warm-started CG from
 * @p temps (BiCGSTAB on a non-symmetric system), escalating through
 * the verified fallback chain when it does not converge. The
 * preconditioner is built on first use and kept.
 */
IterativeResult
iterativeStep(const CsrOperator &system, const std::vector<double> &rhs,
              const std::vector<double> &temps,
              const IterativeOptions &solverOpts, bool symmetric,
              std::unique_ptr<Preconditioner> &precond, CgWorkspace &ws)
{
    if (symmetric && !precond)
        precond = system.makePreconditioner(solverOpts.preconditioner);
    IterativeResult r =
        symmetric ? conjugateGradient(system, rhs, temps, solverOpts,
                                      precond.get(), &ws)
                  : biCgStab(system.matrix(), rhs, temps, solverOpts);
    if (!r.converged) {
        // Rebuild through the verified fallback chain instead of
        // aborting (a transient NaN or injected fault clears on a
        // fresh tier); NumericError when every tier fails.
        RobustSolveOptions ropts;
        ropts.iterative = solverOpts;
        ropts.symmetric = symmetric;
        ropts.scope = FaultInjector::currentContext();
        r = robustSolve(system, &system.matrix(), rhs, temps, ropts, &ws)
                .solve;
    }
    return r;
}

} // namespace

/**
 * The factored form of an implicit integrator's fixed CSR system.
 * Each step is two triangular solves whose answer faces DirectCheck;
 * a rejected answer is counted and warned about, and the
 * integrator's iterative path answers that step instead.
 */
class DirectStep
{
  public:
    /**
     * Factor @p system, or return null (factorWithinCap: over the cap,
     * or a failed pivot). @p who names the integrator in diagnostics.
     */
    static std::unique_ptr<DirectStep>
    make(const CsrMatrix &system, const char *who)
    {
        std::unique_ptr<SparseCholesky> chol =
            factorWithinCap(system, who);
        if (!chol)
            return nullptr;
        return std::unique_ptr<DirectStep>(
            new DirectStep(std::move(chol), who));
    }

    /**
     * Solve system · x = @p rhs and check the answer. When it passes,
     * swap it into @p temps and return true; otherwise leave @p temps
     * (the iterative path's warm start) untouched and return false.
     */
    bool
    solve(const LinearOperator &system, const std::vector<double> &rhs,
          double tolerance, std::vector<double> &temps)
    {
        chol->solve(rhs, x);
        if (!check.accept(system, rhs, x, tolerance))
            return false;
        temps.swap(x);
        return true;
    }

    /** ||b - A x|| of the last direct answer. */
    double residualNorm() const { return check.residualNorm(); }

  private:
    DirectStep(std::unique_ptr<SparseCholesky> chol_, const char *who)
        : chol(std::move(chol_)), check(who)
    {
    }

    std::unique_ptr<SparseCholesky> chol;
    DirectCheck check;
    std::vector<double> x; ///< the direct answer
};

CsrMatrix
addDiagonal(const CsrMatrix &g, const std::vector<double> &extra)
{
    if (extra.size() != g.rows())
        fatal("addDiagonal: size mismatch");
    SparseBuilder b(g.rows(), g.cols());
    const auto &rp = g.rowPointers();
    const auto &ci = g.columnIndices();
    const auto &av = g.storedValues();
    for (std::size_t r = 0; r < g.rows(); ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            b.add(r, ci[k], av[k]);
    for (std::size_t r = 0; r < g.rows(); ++r)
        b.add(r, r, extra[r]);
    return b.build();
}

Rk4Integrator::Rk4Integrator(const CsrMatrix &g_,
                             std::vector<double> capacitance,
                             const Rk4Options &opts_)
    : g(g_), invC(std::move(capacitance)), opts(opts_),
      lastStep(opts_.initialStep),
      stepsMetric(
          obs::MetricsRegistry::global().counter("numeric.rk4.steps")),
      rejectedMetric(obs::MetricsRegistry::global().counter(
          "numeric.rk4.rejected_steps")),
      stepSizeHist(obs::MetricsRegistry::global().histogram(
          "numeric.rk4.step_size_s")),
      errorHist(obs::MetricsRegistry::global().histogram(
          "numeric.rk4.error_estimate_k"))
{
    checkSizes(g, invC);
    for (double &c : invC)
        c = 1.0 / c;
}

void
Rk4Integrator::derivative(const std::vector<double> &temps,
                          const std::vector<double> &power,
                          std::vector<double> &out)
{
    out = power;
    g.multiplyAccumulate(temps, out, -1.0);
    double *od = out.data();
    const double *ic = invC.data();
    const std::size_t n = out.size();
    for (std::size_t i = 0; i < n; ++i)
        od[i] *= ic[i];
}

void
Rk4Integrator::rk4Step(const std::vector<double> &y,
                       const std::vector<double> &dy,
                       const std::vector<double> &power, double h,
                       std::vector<double> &out)
{
    const std::size_t n = y.size();
    tmp.resize(n);

    const double *yd = y.data();
    double *td = tmp.data();

    const double *k1d = dy.data();
    for (std::size_t i = 0; i < n; ++i)
        td[i] = yd[i] + 0.5 * h * k1d[i];
    derivative(tmp, power, k2);
    const double *k2d = k2.data();
    for (std::size_t i = 0; i < n; ++i)
        td[i] = yd[i] + 0.5 * h * k2d[i];
    derivative(tmp, power, k3);
    const double *k3d = k3.data();
    for (std::size_t i = 0; i < n; ++i)
        td[i] = yd[i] + h * k3d[i];
    derivative(tmp, power, k4);
    const double *k4d = k4.data();

    out.resize(n);
    double *od = out.data();
    for (std::size_t i = 0; i < n; ++i) {
        od[i] = yd[i] + h / 6.0 * (k1d[i] + 2.0 * k2d[i] + 2.0 * k3d[i] +
                                   k4d[i]);
    }
}

void
Rk4Integrator::advance(std::vector<double> &temps,
                       const std::vector<double> &power, double dt)
{
    if (temps.size() != g.rows() || power.size() != g.rows())
        fatal("Rk4Integrator::advance: vector size mismatch");
    if (dt <= 0.0)
        fatal("Rk4Integrator::advance: non-positive dt");
    obs::ScopedSpan span("numeric.rk4.advance");
    span.attr("dt_s", dt);
    const std::size_t stepsBefore = steps;

    double t = 0.0;
    double h = std::min(lastStep, dt);

    // The derivative at temps is every trial's first stage; it only
    // changes when a trial is accepted.
    derivative(temps, power, dTemps);
    while (t < dt) {
        h = std::min(h, dt - t);

        // One full step vs two half steps (step doubling).
        rk4Step(temps, dTemps, power, h, full);
        rk4Step(temps, dTemps, power, 0.5 * h, half);
        derivative(half, power, k1);
        rk4Step(half, k1, power, 0.5 * h, half2);

        double err = 0.0;
        for (std::size_t i = 0; i < temps.size(); ++i)
            err = std::max(err, std::abs(half2[i] - full[i]));
        err /= 15.0; // Richardson factor for a 4th-order method

        if (err <= opts.absTolerance || h <= opts.minStep) {
            // Accept the more accurate two-half-step result; swap
            // instead of copying (half2 is overwritten next trial).
            temps.swap(half2);
            t += h;
            if (t < dt)
                derivative(temps, power, dTemps);
            ++steps;
            stepsMetric.add();
            stepSizeHist.observe(h);
            errorHist.observe(err);
            // Grow conservatively; the 0.9 safety factor avoids
            // accept/reject oscillation.
            const double grow =
                err > 0.0
                    ? 0.9 * std::pow(opts.absTolerance / err, 0.2)
                    : 2.0;
            h *= std::clamp(grow, 0.5, 2.0);
            h = std::max(h, opts.minStep);
        } else {
            rejectedMetric.add();
            h = std::max(0.5 * h, opts.minStep);
        }
    }
    lastStep = h;
    span.attr("steps", steps - stepsBefore);
}

BackwardEulerIntegrator::BackwardEulerIntegrator(
    const CsrMatrix &g, std::vector<double> capacitance, double dt_,
    const IterativeOptions &solver)
    : capOverDt(std::move(capacitance)), dt(dt_), solverOpts(solver),
      solvesMetric(
          obs::MetricsRegistry::global().counter("numeric.be.solves")),
      iterationsHist(obs::MetricsRegistry::global().histogram(
          "numeric.be.cg_iterations")),
      warmStartHist(obs::MetricsRegistry::global().histogram(
          "numeric.be.warm_start_residual")),
      residualGauge(obs::MetricsRegistry::global().gauge(
          "numeric.be.last_residual"))
{
    checkSizes(g, capOverDt);
    if (dt <= 0.0)
        fatal("BackwardEulerIntegrator: non-positive dt");
    for (double &c : capOverDt)
        c /= dt;
    systemCsr = addDiagonal(g, capOverDt);
    symmetric = systemCsr.isSymmetric(1e-9);
    if (symmetric)
        direct = DirectStep::make(systemCsr, "backward Euler");
    rhs.resize(capOverDt.size());
}

BackwardEulerIntegrator::~BackwardEulerIntegrator() = default;

void
BackwardEulerIntegrator::step(std::vector<double> &temps,
                              const std::vector<double> &power)
{
    const std::size_t n = system.rows();
    if (temps.size() != n || power.size() != n)
        fatal("BackwardEulerIntegrator::step: vector size mismatch");
    obs::ScopedSpan span("numeric.be.step");
    const double *cd = capOverDt.data();
    const double *td = temps.data();
    const double *pw = power.data();
    double *rd = rhs.data();
    for (std::size_t i = 0; i < n; ++i)
        rd[i] = cd[i] * td[i] + pw[i];
    solvesMetric.add();
    if (direct &&
        direct->solve(system, rhs, solverOpts.tolerance, temps)) {
        residualGauge.set(direct->residualNorm());
        return;
    }
    IterativeResult r = iterativeStep(system, rhs, temps, solverOpts,
                                      symmetric, precond, ws);
    iterationsHist.observe(static_cast<double>(r.iterations));
    warmStartHist.observe(r.initialResidualNorm);
    residualGauge.set(r.residualNorm);
    temps = std::move(r.x);
}

void
BackwardEulerIntegrator::advance(std::vector<double> &temps,
                                 const std::vector<double> &power,
                                 double duration)
{
    const double ratio = duration / dt;
    const double rounded = std::round(ratio);
    if (std::abs(ratio - rounded) > 1e-6 * std::max(1.0, ratio))
        fatal("BackwardEulerIntegrator::advance: duration ", duration,
              " is not a multiple of dt ", dt);
    const auto n = static_cast<std::size_t>(rounded);
    for (std::size_t i = 0; i < n; ++i)
        step(temps, power);
}

CrankNicolsonIntegrator::CrankNicolsonIntegrator(
    const CsrMatrix &g, std::vector<double> capacitance, double dt_,
    const IterativeOptions &solver)
    : gOp(g), capOverDt(std::move(capacitance)), dt(dt_),
      solverOpts(solver),
      solvesMetric(
          obs::MetricsRegistry::global().counter("numeric.cn.solves")),
      iterationsHist(obs::MetricsRegistry::global().histogram(
          "numeric.cn.cg_iterations"))
{
    checkSizes(g, capOverDt);
    if (dt <= 0.0)
        fatal("CrankNicolsonIntegrator: non-positive dt");
    for (double &c : capOverDt)
        c /= dt;

    // system = C/dt + G/2
    SparseBuilder b(g.rows(), g.cols());
    const auto &rp = g.rowPointers();
    const auto &ci = g.columnIndices();
    const auto &av = g.storedValues();
    for (std::size_t r = 0; r < g.rows(); ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            b.add(r, ci[k], 0.5 * av[k]);
    for (std::size_t r = 0; r < g.rows(); ++r)
        b.add(r, r, capOverDt[r]);
    systemCsr = b.build();
    symmetric = systemCsr.isSymmetric(1e-9);
    if (symmetric)
        direct = DirectStep::make(systemCsr, "Crank-Nicolson");
    rhs.resize(capOverDt.size());
}

CrankNicolsonIntegrator::~CrankNicolsonIntegrator() = default;

void
CrankNicolsonIntegrator::step(std::vector<double> &temps,
                              const std::vector<double> &power)
{
    const std::size_t n = system.rows();
    if (temps.size() != n || power.size() != n)
        fatal("CrankNicolsonIntegrator::step: vector size mismatch");
    obs::ScopedSpan span("numeric.cn.step");
    // rhs = (C/dt) T - (G/2) T + P
    const double *cd = capOverDt.data();
    const double *td = temps.data();
    const double *pw = power.data();
    double *rd = rhs.data();
    for (std::size_t i = 0; i < n; ++i)
        rd[i] = cd[i] * td[i] + pw[i];
    gOp.applyAccumulate(temps, rhs, -0.5);
    solvesMetric.add();
    if (direct &&
        direct->solve(system, rhs, solverOpts.tolerance, temps))
        return;
    IterativeResult r = iterativeStep(system, rhs, temps, solverOpts,
                                      symmetric, precond, ws);
    iterationsHist.observe(static_cast<double>(r.iterations));
    temps = std::move(r.x);
}

} // namespace irtherm
