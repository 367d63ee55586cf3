#include "numeric/direct_solve.hh"

#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "numeric/robust_solve.hh"
#include "obs/span.hh"

namespace irtherm
{

std::unique_ptr<SparseCholesky>
factorWithinCap(const CsrMatrix &a, const char *who)
{
    // L holds at least half of A's entries: skip the ordering when
    // even that is over the cap.
    if (a.nonZeros() / 2 > kDirectFactorCap) {
        debugLog(who, ": ", a.nonZeros(),
                 " entries exceed the factor cap; solving iteratively");
        return nullptr;
    }
    obs::ScopedSpan span("numeric.chol.factor");
    span.attr("nodes", a.rows());
    auto chol = std::make_unique<SparseCholesky>(a);
    span.attr("factor_entries", chol->factorNonZeros())
        .attr("supernodes", chol->supernodeCount())
        .attr("flops", chol->factorFlops());
    if (chol->factorNonZeros() > kDirectFactorCap) {
        debugLog(who, ": a ", chol->factorNonZeros(),
                 "-entry factor exceeds the cap; solving iteratively");
        span.attr("factored", "over_cap");
        return nullptr;
    }
    auto &reg = obs::MetricsRegistry::global();
    if (!chol->factor(a)) {
        reg.counter("numeric.chol.rejected").add();
        warn(who, ": system does not factor (", chol->failure(),
             "); solving iteratively");
        span.attr("factored", "no");
        return nullptr;
    }
    reg.counter("numeric.chol.factors").add();
    span.attr("factored", "yes");
    return chol;
}

DirectCheck::DirectCheck(const char *who_)
    : who(who_),
      solves(obs::MetricsRegistry::global().counter("numeric.chol.solves")),
      rejected(
          obs::MetricsRegistry::global().counter("numeric.chol.rejected"))
{
}

bool
DirectCheck::accept(const LinearOperator &a, const std::vector<double> &b,
                    std::vector<double> &x, double tolerance)
{
    if (FaultInjector::global().shouldFire(faultpoint::CholCorrupt)) {
        // Large but finite, so only the residual check can tell.
        x[x.size() / 2] = 1e12;
    }
    const SolutionCheck check =
        checkSolution(a, b, x, tolerance,
                      RobustSolveOptions{}.residualSlack, resid);
    residual = check.residualNorm;
    if (!check.ok()) {
        rejected.add();
        warn(who, ": direct step rejected (",
             check.finite ? "" : "non-finite answer, ", "residual ",
             check.residualNorm, " > bound ", check.bound,
             "); answering iteratively");
        return false;
    }
    solves.add();
    return true;
}

} // namespace irtherm
