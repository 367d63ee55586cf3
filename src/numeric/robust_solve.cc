#include "numeric/robust_solve.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <utility>

#include "base/errors.hh"
#include "base/logging.hh"
#include "numeric/dense_matrix.hh"
#include "numeric/lu.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{

namespace
{

/** One method in the escalation chain. */
struct Tier
{
    const char *method;
    std::function<IterativeResult()> run;
};

const char *
cgMethodName(PreconditionerKind kind)
{
    return kind == PreconditionerKind::Multigrid ? "mg-cg" : "jacobi-cg";
}

/** Metric-name-safe spelling of a method ("jacobi-cg" -> "jacobi_cg"). */
std::string
metricSuffix(const char *method)
{
    std::string s(method);
    std::replace(s.begin(), s.end(), '-', '_');
    return s;
}

/** Solve via dense LU; "iterations" reported as 0 (direct method). */
IterativeResult
denseLuSolve(const CsrMatrix &a, const std::vector<double> &b)
{
    const std::size_t n = a.rows();
    DenseMatrix dense(n, n);
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            dense(r, ci[k]) = av[k];
    }
    const LuDecomposition lu(dense); // fatal() when singular
    IterativeResult res;
    res.x = lu.solve(b);
    res.converged = true;
    return res;
}

/**
 * Run the chain: accept the first tier whose answer verifies
 * (converged, finite, independently recomputed residual in bound).
 */
RobustSolveResult
runChain(const LinearOperator &verifyOp, const std::vector<double> &b,
         const RobustSolveOptions &opts, const std::vector<Tier> &tiers)
{
    static obs::Counter &escalations =
        obs::MetricsRegistry::global().counter(
            "resilience.fallback.escalations");
    static obs::Counter &exhausted =
        obs::MetricsRegistry::global().counter(
            "resilience.fallback.exhausted");

    const std::string &scope = opts.scope;

    std::vector<double> resid;
    RobustSolveResult out;
    for (std::size_t t = 0; t < tiers.size(); ++t) {
        out.tiersTried = t + 1;
        obs::ScopedSpan tierSpan("solve.tier");
        tierSpan.attr("method", tiers[t].method).attr("tier", t);
        IterativeResult r;
        std::string failure;
        try {
            r = tiers[t].run();
            if (!r.converged) {
                failure = "did not converge";
            } else {
                const SolutionCheck check =
                    checkSolution(verifyOp, b, r.x,
                                  opts.iterative.tolerance,
                                  opts.residualSlack, resid);
                if (!check.finite) {
                    failure = "non-finite solution entries";
                } else if (!check.ok()) {
                    failure = "verified residual " +
                              std::to_string(check.residualNorm) +
                              " exceeds bound " +
                              std::to_string(check.bound);
                } else {
                    // Report the *true* residual, not the recurrence
                    // one.
                    r.residualNorm = check.residualNorm;
                }
            }
        } catch (const FatalError &e) {
            failure = e.what();
        }
        tierSpan.attr("iterations", r.iterations)
            .attr("accepted", failure.empty() ? "yes" : "no");

        if (failure.empty()) {
            out.solve = std::move(r);
            out.fallbackTier = static_cast<int>(t);
            out.method = tiers[t].method;
            if (t > 0) {
                obs::MetricsRegistry::global()
                    .counter("resilience.fallback." +
                             metricSuffix(tiers[t].method))
                    .add();
                IRTHERM_EVENT("resilience.fallback.recovered",
                              {"scope", scope},
                              {"method", out.method},
                              {"tier", out.fallbackTier},
                              {"residual", out.solve.residualNorm});
            }
            return out;
        }

        escalations.add();
        warn("robustSolve", scope.empty() ? "" : " [" + scope + "]",
             ": ", tiers[t].method, " failed (", failure, "); ",
             t + 1 < tiers.size() ? "escalating" : "chain exhausted");
        IRTHERM_EVENT("resilience.fallback.escalate", {"scope", scope},
                      {"method", tiers[t].method}, {"tier", t},
                      {"reason", failure});
    }

    exhausted.add();
    numericError("robustSolve", scope.empty() ? "" : " [" + scope + "]",
                 ": all ", tiers.size(),
                 " solver tiers failed verification");
}

} // namespace

SolutionCheck
checkSolution(const LinearOperator &a, const std::vector<double> &b,
              const std::vector<double> &x, double tolerance,
              double slack, std::vector<double> &resid)
{
    SolutionCheck c;
    c.finite = true;
    for (double v : x) {
        if (!std::isfinite(v)) {
            c.finite = false;
            break;
        }
    }
    resid = b;
    a.applyAccumulate(x, resid, -1.0);
    c.residualNorm = norm2(resid);
    c.bound = slack * tolerance * std::max(norm2(b), 1e-300);
    return c;
}

RobustSolveResult
robustSolve(const LinearOperator &a, const CsrMatrix *csr,
            const std::vector<double> &b, const std::vector<double> &x0,
            const RobustSolveOptions &opts, CgWorkspace *ws)
{
    if (!opts.symmetric && csr == nullptr) {
        fatal("robustSolve: non-symmetric systems need a stored "
              "matrix (BiCGSTAB chain)");
    }

    const IterativeOptions &primary = opts.iterative;
    IterativeOptions jacobi = primary;
    jacobi.preconditioner = PreconditionerKind::Jacobi;

    std::vector<Tier> tiers;
    // Kept outside the branch: the tiers run after it closes.
    std::unique_ptr<Preconditioner> precond;
    std::exception_ptr buildError;
    if (opts.symmetric) {
        // Build the primary preconditioner here and name the tier
        // after what was built: a CSR network turns Multigrid into
        // Jacobi, so a chain never runs a solve under another
        // method's name or queues it twice. A build that throws fails
        // the primary tier, named for the requested kind, like a
        // failed solve.
        try {
            precond = a.makePreconditioner(primary.preconditioner);
        } catch (const FatalError &) {
            buildError = std::current_exception();
        }
        const PreconditionerKind built =
            precond ? precond->kind() : primary.preconditioner;
        tiers.push_back({cgMethodName(built), [&] {
            if (buildError)
                std::rethrow_exception(buildError);
            return conjugateGradient(a, b, x0, primary, precond.get(),
                                     ws);
        }});
        if (built != PreconditionerKind::Jacobi) {
            tiers.push_back({"jacobi-cg", [&] {
                return conjugateGradient(a, b, x0, jacobi, nullptr, ws);
            }});
        }
        if (csr != nullptr) {
            tiers.push_back({"bicgstab", [&] {
                return biCgStab(*csr, b, x0, jacobi);
            }});
        }
    } else {
        tiers.push_back({"jacobi-bicgstab", [&] {
            return biCgStab(*csr, b, x0, jacobi);
        }});
    }
    if (csr != nullptr && csr->rows() <= opts.maxDenseDimension) {
        tiers.push_back({"dense-lu", [&] {
            return denseLuSolve(*csr, b);
        }});
    }

    return runChain(a, b, opts, tiers);
}

RobustSolveResult
robustSolve(const CsrMatrix &a, const std::vector<double> &b,
            const std::vector<double> &x0, const RobustSolveOptions &opts)
{
    const CsrOperator op(a);
    return robustSolve(op, &a, b, x0, opts, nullptr);
}

} // namespace irtherm
