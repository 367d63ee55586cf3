#include "numeric/iterative.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{

namespace
{

/**
 * Reduction chunk size. Both the serial and parallel reduction paths
 * accumulate per-chunk partial sums at these boundaries and combine
 * them in ascending chunk order, so the floating-point result is
 * bit-identical at any thread count.
 */
constexpr std::size_t kReduceChunk = 1024;

/** Below this many elements a pool dispatch costs more than it saves. */
constexpr std::size_t kParallelThreshold = 4096;

/** A template for the same reason as forEachRange(). */
template <typename Fn>
double
reduceChunked(std::size_t n, const Fn &fn)
{
    if (rangeRunsPooled(n)) {
        return ThreadPool::global().parallelReduceSum(0, n, kReduceChunk,
                                                      fn);
    }
    double total = 0.0;
    for (std::size_t b = 0; b < n; b += kReduceChunk)
        total += fn(b, std::min(n, b + kReduceChunk));
    return total;
}

} // namespace

bool
rangeRunsPooled(std::size_t n)
{
    return n >= kParallelThreshold && ThreadPool::parallelEnabled() &&
           ThreadPool::global().threadCount() > 1;
}

void
forEachRangePooled(
    std::size_t n, const std::function<void(std::size_t, std::size_t)> &fn)
{
    ThreadPool &pool = ThreadPool::global();
    const std::size_t grain = std::max<std::size_t>(
        kReduceChunk, n / (4 * pool.threadCount()));
    pool.parallelFor(0, n, grain, fn);
}

double
norm2(const std::vector<double> &v)
{
    const double *vd = v.data();
    return std::sqrt(reduceChunked(
        v.size(), [vd](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i)
                s += vd[i] * vd[i];
            return s;
        }));
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        fatal("dot: size mismatch");
    const double *ad = a.data();
    const double *bd = b.data();
    return reduceChunked(a.size(),
                         [ad, bd](std::size_t lo, std::size_t hi) {
                             double s = 0.0;
                             for (std::size_t i = lo; i < hi; ++i)
                                 s += ad[i] * bd[i];
                             return s;
                         });
}

IterativeResult
conjugateGradient(const LinearOperator &a, const std::vector<double> &b,
                  const std::vector<double> &x0,
                  const IterativeOptions &opts,
                  const Preconditioner *precond, CgWorkspace *ws)
{
    static obs::Timer &solveTimer =
        obs::MetricsRegistry::global().timer("numeric.cg.solve_time_s");
    static obs::Counter &iterCounter =
        obs::MetricsRegistry::global().counter("numeric.cg.iterations");
    obs::ScopedTimer span(solveTimer);

    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n)
        fatal("conjugateGradient: dimension mismatch");
    obs::ScopedSpan cgSpan("numeric.cg");
    cgSpan.attr("n", n);

    IterativeResult res;
    res.x = x0.empty() ? std::vector<double>(n, 0.0) : x0;
    if (res.x.size() != n)
        fatal("conjugateGradient: bad initial guess size");

    std::unique_ptr<Preconditioner> owned;
    if (!precond) {
        owned = a.makePreconditioner(opts.preconditioner);
        precond = owned.get();
    }

    CgWorkspace local;
    if (!ws)
        ws = &local;
    std::vector<double> &r = ws->r;
    std::vector<double> &z = ws->z;
    std::vector<double> &p = ws->p;
    std::vector<double> &ap = ws->ap;

    // r = b - A x
    r = b;
    a.applyAccumulate(res.x, r, -1.0);
    double rr = dot(r, r);
    res.initialResidualNorm = std::sqrt(rr);

    // Fault probes (single relaxed load each when disarmed).
    if (FaultInjector::global().shouldFire(faultpoint::CgDiverge)) {
        res.residualNorm = res.initialResidualNorm;
        return res; // converged == false: caller's fallback takes over
    }
    if (FaultInjector::global().shouldFire(faultpoint::CgNan)) {
        r[0] = std::numeric_limits<double>::quiet_NaN();
        rr = r[0];
    }

    const double bnorm = std::max(norm2(b), 1e-300);
    precond->apply(r, z);
    p = z;
    ap.resize(n);
    double rz = dot(r, z);

    double *xd = res.x.data();
    double *rd = r.data();
    double *zd = z.data();
    double *pd = p.data();
    double *apd = ap.data();

    // One child span per 256-iteration block: fine enough to show
    // where a long solve spends its time, coarse enough not to
    // swamp the span ring on a 10^4-iteration run.
    constexpr std::size_t kIterSpanBlock = 256;
    std::optional<obs::ScopedSpan> blockSpan;
    for (std::size_t it = 0; it < opts.maxIterations; ++it) {
        if (it % kIterSpanBlock == 0) {
            blockSpan.reset();
            blockSpan.emplace("numeric.cg.iterate");
            blockSpan->attr("first_iteration", it)
                .attr("residual", std::sqrt(rr));
        }
        res.residualNorm = std::sqrt(rr);
        if (!std::isfinite(res.residualNorm)) {
            // NaN/Inf contaminated the recurrence (bad input, an
            // injected fault, or breakdown): every later iterate
            // would stay poisoned, so report failure immediately and
            // let the caller's fallback chain rebuild cleanly.
            res.iterations = it;
            iterCounter.add(it);
            cgSpan.attr("iterations", it).attr("converged", "no");
            return res;
        }
        if (res.residualNorm <= opts.tolerance * bnorm) {
            res.converged = true;
            res.iterations = it;
            iterCounter.add(it);
            cgSpan.attr("iterations", it).attr("converged", "yes");
            return res;
        }

        a.apply(p, ap);
        const double pap = dot(p, ap);
        // Negated comparison so a NaN curvature lands here too.
        if (!(pap > 0.0)) {
            numericError("conjugateGradient: matrix not positive "
                         "definite (p·Ap = ", pap, ")");
        }
        const double alpha = rz / pap;

        // Fused: update x and r and accumulate the new ||r||^2 in one
        // pass (the pre-refactor code made three).
        rr = reduceChunked(n, [&](std::size_t lo, std::size_t hi) {
            double s = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                xd[i] += alpha * pd[i];
                rd[i] -= alpha * apd[i];
                s += rd[i] * rd[i];
            }
            return s;
        });

        precond->apply(r, z);
        zd = z.data();
        const double rz_next = dot(r, z);
        const double beta = rz_next / rz;
        rz = rz_next;
        forEachRange(n, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                pd[i] = zd[i] + beta * pd[i];
        });
    }

    res.residualNorm = std::sqrt(rr);
    res.iterations = opts.maxIterations;
    res.converged = res.residualNorm <= opts.tolerance * bnorm;
    iterCounter.add(res.iterations);
    cgSpan.attr("iterations", res.iterations)
        .attr("converged", res.converged ? "yes" : "no");
    return res;
}

IterativeResult
conjugateGradient(const CsrMatrix &a, const std::vector<double> &b,
                  const std::vector<double> &x0,
                  const IterativeOptions &opts)
{
    CsrOperator op(a);
    return conjugateGradient(op, b, x0, opts);
}

IterativeResult
biCgStab(const CsrMatrix &a, const std::vector<double> &b,
         const std::vector<double> &x0, const IterativeOptions &opts)
{
    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n)
        fatal("biCgStab: dimension mismatch");

    IterativeResult res;
    res.x = x0.empty() ? std::vector<double>(n, 0.0) : x0;
    if (res.x.size() != n)
        fatal("biCgStab: bad initial guess size");

    const JacobiPreconditioner precond(a.diagonal());

    std::vector<double> r = b;
    a.multiplyAccumulate(res.x, r, -1.0);
    res.initialResidualNorm = norm2(r);
    // Same probe as CG so a targeted scope can force every iterative
    // tier of the fallback chain to report divergence.
    if (FaultInjector::global().shouldFire(faultpoint::CgDiverge)) {
        res.residualNorm = res.initialResidualNorm;
        return res;
    }
    const std::vector<double> r_hat = r; // shadow residual
    const double bnorm = std::max(norm2(b), 1e-300);

    double rho = 1.0, alpha = 1.0, omega = 1.0;
    std::vector<double> v(n, 0.0), p(n, 0.0);
    std::vector<double> p_hat(n), s(n), s_hat(n), t(n);

    // Iterations actually performed; breakdown exits break out with
    // the loop index instead of reporting the full budget.
    std::size_t used = opts.maxIterations;

    for (std::size_t it = 0; it < opts.maxIterations; ++it) {
        res.residualNorm = norm2(r);
        if (res.residualNorm <= opts.tolerance * bnorm) {
            res.converged = true;
            res.iterations = it;
            return res;
        }

        const double rho_next = dot(r_hat, r);
        if (rho_next == 0.0) {
            used = it;
            break; // breakdown; return best effort
        }
        if (it == 0) {
            p = r;
        } else {
            const double beta = (rho_next / rho) * (alpha / omega);
            for (std::size_t i = 0; i < n; ++i)
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        rho = rho_next;

        precond.apply(p, p_hat);
        a.apply(p_hat, v);
        const double rhv = dot(r_hat, v);
        if (rhv == 0.0) {
            used = it;
            break;
        }
        alpha = rho / rhv;

        for (std::size_t i = 0; i < n; ++i)
            s[i] = r[i] - alpha * v[i];
        if (norm2(s) <= opts.tolerance * bnorm) {
            for (std::size_t i = 0; i < n; ++i)
                res.x[i] += alpha * p_hat[i];
            res.residualNorm = norm2(s);
            res.converged = true;
            res.iterations = it + 1;
            return res;
        }

        precond.apply(s, s_hat);
        a.apply(s_hat, t);
        const double tt = dot(t, t);
        if (tt == 0.0) {
            used = it;
            break;
        }
        omega = dot(t, s) / tt;

        for (std::size_t i = 0; i < n; ++i) {
            res.x[i] += alpha * p_hat[i] + omega * s_hat[i];
            r[i] = s[i] - omega * t[i];
        }
        if (omega == 0.0) {
            used = it + 1;
            break;
        }
    }

    // Final residual check (covers breakdown exits).
    std::vector<double> resid = b;
    a.multiplyAccumulate(res.x, resid, -1.0);
    res.residualNorm = norm2(resid);
    res.converged = res.residualNorm <= opts.tolerance * bnorm;
    res.iterations = used;
    return res;
}

} // namespace irtherm
