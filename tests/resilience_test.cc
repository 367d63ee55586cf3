/**
 * @file
 * Resilience-layer tests: deterministic fault injection, verified
 * solver fallback chains, sweep retry/watchdog escalation, and
 * crash-safe journal quarantine + resume.
 *
 * Every test that arms the process-wide FaultInjector does so through
 * ArmGuard, which disarms on scope exit — the injector must be inert
 * for every other test in the binary.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "core/package.hh"
#include "core/stack_model.hh"
#include "fabric/result_cache.hh"
#include "floorplan/presets.hh"
#include "numeric/grid_stencil.hh"
#include "numeric/impulse_cache.hh"
#include "numeric/linear_operator.hh"
#include "numeric/robust_solve.hh"
#include "numeric/sparse.hh"
#include "obs/span.hh"
#include "sweep/plan.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "sweep/scenario.hh"

namespace irtherm
{
namespace
{

/** Arm the global injector for one test; always disarm on exit. */
class ArmGuard
{
  public:
    explicit ArmGuard(const std::string &spec)
    {
        FaultInjector::global().arm(spec);
    }
    ~ArmGuard() { FaultInjector::global().disarm(); }
    ArmGuard(const ArmGuard &) = delete;
    ArmGuard &operator=(const ArmGuard &) = delete;
};

/** Fresh per-test output directory under the gtest temp root. */
std::string
freshOutDir(const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("irtherm_resilience_" + tag);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Small well-conditioned SPD system with a known solution. */
CsrMatrix
spdSystem(std::size_t n)
{
    SparseBuilder b(n, n);
    for (std::size_t i = 0; i + 1 < n; ++i)
        b.stampConductance(i, i + 1, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        b.stampGroundConductance(i, 0.5);
    return b.build();
}

std::vector<sweep::JobResult>
readJournal(const std::string &dir)
{
    sweep::ResultStore store(dir);
    store.loadJournal();
    std::vector<sweep::JobResult> out;
    std::ifstream in(store.journalPath());
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (!line.empty())
            out.push_back(sweep::JobResult::fromJsonLine(
                line, "journal line " + std::to_string(lineno)));
    }
    return out;
}

const sweep::JobResult *
findByName(const std::vector<sweep::JobResult> &results,
           const std::string &name)
{
    for (const sweep::JobResult &r : results)
        if (r.name == name)
            return &r;
    return nullptr;
}

// ---------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------

TEST(FaultInjector, DisarmedInjectorNeverFires)
{
    FaultInjector inj;
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(inj.shouldFire("cg.nan"));
    EXPECT_FALSE(inj.shouldFire("journal.corrupt", "anything"));
    EXPECT_EQ(inj.fired(), 0u);
}

TEST(FaultInjector, RejectsMalformedSpecs)
{
    FaultInjector inj;
    EXPECT_THROW(inj.arm("not.a.point"), ConfigError);
    EXPECT_THROW(inj.arm("cg.nan:count=abc"), ConfigError);
    EXPECT_THROW(inj.arm("cg.nan:=1"), ConfigError);
    // A failed arm must not leave the injector half-armed.
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(inj.shouldFire("cg.nan"));
}

TEST(FaultInjector, EmptySpecDisarms)
{
    FaultInjector inj;
    inj.arm("cg.nan");
    EXPECT_TRUE(inj.armed());
    inj.arm("");
    EXPECT_FALSE(inj.armed());
}

TEST(FaultInjector, MatchCountAndAfterGateFiring)
{
    FaultInjector inj;
    inj.arm("cg.nan:match=hot:count=2:after=1");
    // Non-matching scope keys never fire or consume occurrences.
    EXPECT_FALSE(inj.shouldFire("cg.nan", "cold"));
    EXPECT_FALSE(inj.shouldFire("cg.diverge", "hot"));
    // First matching probe is skipped (after=1), next two fire,
    // then the count is exhausted.
    EXPECT_FALSE(inj.shouldFire("cg.nan", "hotspot"));
    EXPECT_TRUE(inj.shouldFire("cg.nan", "hotspot"));
    EXPECT_TRUE(inj.shouldFire("cg.nan", "hotspot"));
    EXPECT_FALSE(inj.shouldFire("cg.nan", "hotspot"));
    EXPECT_EQ(inj.fired(), 2u);
}

TEST(FaultInjector, ProbabilisticRulesAreDeterministic)
{
    // Two injectors armed with the same spec draw from identically
    // seeded generators, so their fire sequences are equal.
    FaultInjector a, b;
    a.arm("cg.nan:count=1000000:prob=0.35");
    b.arm("cg.nan:count=1000000:prob=0.35");
    std::size_t fires = 0;
    for (int i = 0; i < 500; ++i) {
        const bool fa = a.shouldFire("cg.nan");
        const bool fb = b.shouldFire("cg.nan");
        EXPECT_EQ(fa, fb) << "probe " << i;
        fires += fa ? 1u : 0u;
    }
    // ~35% of 500; generous bounds — determinism is the assertion.
    EXPECT_GT(fires, 100u);
    EXPECT_LT(fires, 300u);
}

TEST(FaultInjector, ParamReturnsPayloadOrFallback)
{
    FaultInjector inj;
    inj.arm("job.stall:seconds=0.7");
    EXPECT_DOUBLE_EQ(inj.param("job.stall", "seconds", 0.2), 0.7);
    EXPECT_DOUBLE_EQ(inj.param("job.stall", "volume", 3.0), 3.0);
    EXPECT_DOUBLE_EQ(inj.param("cg.nan", "seconds", 0.2), 0.2);
}

TEST(FaultInjector, ScopedContextNestsPerThread)
{
    EXPECT_EQ(FaultInjector::currentContext(), "");
    {
        const FaultInjector::ScopedContext outer("job-outer");
        EXPECT_EQ(FaultInjector::currentContext(), "job-outer");
        {
            const FaultInjector::ScopedContext inner("job-inner");
            EXPECT_EQ(FaultInjector::currentContext(), "job-inner");
        }
        EXPECT_EQ(FaultInjector::currentContext(), "job-outer");
    }
    EXPECT_EQ(FaultInjector::currentContext(), "");
}

TEST(FaultInjector, EmptyProbeKeyMatchesAgainstScopedContext)
{
    FaultInjector inj;
    inj.arm("cg.diverge:match=target:count=5");
    EXPECT_FALSE(inj.shouldFire("cg.diverge"));
    {
        const FaultInjector::ScopedContext scope("the-target-job");
        EXPECT_TRUE(inj.shouldFire("cg.diverge"));
    }
    EXPECT_FALSE(inj.shouldFire("cg.diverge"));
}

// ---------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------

TEST(ErrorTaxonomy, ClassNamesRoundTrip)
{
    for (const ErrorClass c :
         {ErrorClass::None, ErrorClass::Config, ErrorClass::Numeric,
          ErrorClass::Io, ErrorClass::Timeout, ErrorClass::Internal})
        EXPECT_EQ(parseErrorClass(errorClassName(c)), c);
    // Unknown names (future journal versions) degrade to Internal.
    EXPECT_EQ(parseErrorClass("quantum"), ErrorClass::Internal);
}

TEST(ErrorTaxonomy, ClassifyExceptionSeesThroughFatalError)
{
    auto classify = [](auto thrower) {
        try {
            thrower();
        } catch (const std::exception &e) {
            return classifyException(e);
        }
        return ErrorClass::None;
    };
    EXPECT_EQ(classify([] { configError("x"); }), ErrorClass::Config);
    EXPECT_EQ(classify([] { numericError("x"); }),
              ErrorClass::Numeric);
    EXPECT_EQ(classify([] { ioError("x"); }), ErrorClass::Io);
    EXPECT_EQ(classify([] { timeoutError("x"); }),
              ErrorClass::Timeout);
    EXPECT_EQ(classify([] { fatal("x"); }), ErrorClass::Internal);
}

TEST(ErrorTaxonomy, OnlyNumericAndIoAreRetryable)
{
    EXPECT_TRUE(errorClassRetryable(ErrorClass::Numeric));
    EXPECT_TRUE(errorClassRetryable(ErrorClass::Io));
    EXPECT_FALSE(errorClassRetryable(ErrorClass::Config));
    EXPECT_FALSE(errorClassRetryable(ErrorClass::Timeout));
    EXPECT_FALSE(errorClassRetryable(ErrorClass::Internal));
    EXPECT_FALSE(errorClassRetryable(ErrorClass::None));
}

TEST(ErrorTaxonomy, RefinedClassesAreCatchableAsFatalError)
{
    // Existing EXPECT_THROW(..., FatalError) sites must keep passing.
    EXPECT_THROW(configError("x"), FatalError);
    EXPECT_THROW(numericError("x"), FatalError);
    EXPECT_THROW(ioError("x"), FatalError);
    EXPECT_THROW(timeoutError("x"), FatalError);
}

// ---------------------------------------------------------------
// robustSolve: verification and the fallback chain
// ---------------------------------------------------------------

TEST(RobustSolve, HealthySystemPassesAtTierZero)
{
    const CsrMatrix a = spdSystem(40);
    const std::vector<double> b(40, 1.0);
    const RobustSolveResult r = robustSolve(a, b);
    EXPECT_TRUE(r.solve.converged);
    EXPECT_EQ(r.fallbackTier, 0);
    EXPECT_EQ(r.tiersTried, 1u);
    EXPECT_EQ(r.method, "jacobi-cg");
    // Independent residual check of the accepted answer.
    const std::vector<double> ax = a.multiply(r.solve.x);
    double err = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i)
        err = std::max(err, std::abs(ax[i] - b[i]));
    EXPECT_LT(err, 1e-8);
}

TEST(RobustSolve, InjectedDivergenceEscalatesOneTier)
{
    // A CSR system opens its chain with jacobi-cg; BiCGSTAB is next.
    const ArmGuard faults("cg.diverge:count=1");
    const CsrMatrix a = spdSystem(40);
    const std::vector<double> b(40, 1.0);
    const RobustSolveResult r = robustSolve(a, b);
    EXPECT_TRUE(r.solve.converged);
    EXPECT_EQ(r.fallbackTier, 1);
    EXPECT_EQ(r.method, "bicgstab");
}

TEST(RobustSolve, InjectedNanEscalates)
{
    const ArmGuard faults("cg.nan:count=1");
    const CsrMatrix a = spdSystem(40);
    const std::vector<double> b(40, 1.0);
    const RobustSolveResult r = robustSolve(a, b);
    EXPECT_TRUE(r.solve.converged);
    EXPECT_GE(r.fallbackTier, 1);
    const std::vector<double> ax = a.multiply(r.solve.x);
    for (std::size_t i = 0; i < ax.size(); ++i)
        EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(RobustSolve, ChainReachesDenseLu)
{
    // Every iterative tier (Jacobi-CG, BiCGSTAB) is forced to report
    // divergence; the dense LU tier has no probe and rescues.
    const ArmGuard faults("cg.diverge:count=2");
    const CsrMatrix a = spdSystem(40);
    const std::vector<double> b(40, 1.0);
    const RobustSolveResult r = robustSolve(a, b);
    EXPECT_TRUE(r.solve.converged);
    EXPECT_EQ(r.method, "dense-lu");
    EXPECT_EQ(r.tiersTried, 3u);
    const std::vector<double> ax = a.multiply(r.solve.x);
    for (std::size_t i = 0; i < ax.size(); ++i)
        EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(RobustSolve, ExhaustedChainThrowsNumericError)
{
    const ArmGuard faults("cg.diverge:count=100");
    const CsrMatrix a = spdSystem(40);
    const std::vector<double> b(40, 1.0);
    RobustSolveOptions opts;
    opts.maxDenseDimension = 0; // no LU rescue: every tier fails
    EXPECT_THROW(robustSolve(a, b, {}, opts), NumericError);
}

TEST(RobustSolve, OperatorWithoutCsrStopsAtJacobiTier)
{
    const ArmGuard faults("cg.diverge:count=100");
    const CsrMatrix a = spdSystem(40);
    const CsrOperator op(a);
    const std::vector<double> b(40, 1.0);
    // Without a CSR view the chain ends at jacobi-cg; it is forced
    // to fail, so the solve must exhaust rather than reach
    // BiCGSTAB/LU.
    EXPECT_THROW(robustSolve(op, nullptr, b), NumericError);
}

TEST(RobustSolve, DisarmedResultIsBitIdenticalToPlainCg)
{
    const CsrMatrix a = spdSystem(60);
    std::vector<double> b(60);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = 0.25 + 0.01 * static_cast<double>(i);
    const RobustSolveResult robust = robustSolve(a, b);
    const IterativeResult plain = conjugateGradient(a, b);
    ASSERT_EQ(robust.solve.x.size(), plain.x.size());
    for (std::size_t i = 0; i < plain.x.size(); ++i)
        EXPECT_EQ(robust.solve.x[i], plain.x[i]) << i;
}

TEST(RobustSolve, InjectedMgDivergenceDemotesToJacobiCg)
{
    // A poisoned V-cycle makes the mg-cg tier produce NaNs; the
    // chain falls back to Jacobi-CG, its next tier.
    const ArmGuard faults("mg.diverge:count=1");
    GridStencilOperator op(12, 12, 4);
    for (std::size_t iz = 0; iz < 4; ++iz)
        for (std::size_t iy = 0; iy < 12; ++iy)
            for (std::size_t ix = 0; ix < 12; ++ix) {
                if (ix + 1 < 12)
                    op.stampLinkX(ix, iy, iz, 1.0);
                if (iy + 1 < 12)
                    op.stampLinkY(ix, iy, iz, 1.0);
                if (iz + 1 < 4)
                    op.stampLinkZ(ix, iy, iz, 4.0);
                if (iz == 3)
                    op.stampGround(ix, iy, iz, 0.3);
            }
    std::vector<double> b(op.rows());
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = 0.5 + 0.001 * static_cast<double>(i);

    RobustSolveOptions opts;
    opts.iterative.preconditioner = PreconditionerKind::Multigrid;
    const RobustSolveResult r = robustSolve(op, nullptr, b, {}, opts);
    EXPECT_TRUE(r.solve.converged);
    EXPECT_EQ(r.fallbackTier, 1);
    EXPECT_EQ(r.method, "jacobi-cg");
    EXPECT_GE(FaultInjector::global().fired(), 1u);
}

TEST(RobustSolve, StackModelChainNamesTheSolvesItRuns)
{
    // A grid stack answers Multigrid with the bordered V-cycle: the
    // primary tier is mg-cg, and it agrees with a Jacobi-CG solve.
    const Floorplan fp = floorplans::alphaEv6();
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 16;
    mo.gridNy = 16;
    const StackModel model(fp, PackageConfig::makeOilSilicon(10.0), mo);
    const std::vector<double> powers(fp.blockCount(), 1.0);

    StackModel::SteadySolveOptions so;
    EXPECT_EQ(so.preconditioner, PreconditionerKind::Multigrid);
    StackModel::SteadySolveInfo info;
    const std::vector<double> viaMg =
        model.steadyNodeTemperatures(powers, so, &info);
    EXPECT_EQ(info.method, "mg-cg");
    EXPECT_EQ(info.fallbackTier, 0);
    so.preconditioner = PreconditionerKind::Jacobi;
    const std::vector<double> viaJacobi =
        model.steadyNodeTemperatures(powers, so, &info);
    EXPECT_EQ(info.method, "jacobi-cg");
    ASSERT_EQ(viaJacobi.size(), viaMg.size());
    for (std::size_t i = 0; i < viaMg.size(); ++i)
        EXPECT_NEAR(viaMg[i], viaJacobi[i], 1e-9) << i;

    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    // Starved of iterations (MG needs about 13), the iterative tiers
    // fail in turn; the solve.tier spans name each distinct solve
    // once, in chain order.
    obs::SpanRecorder &rec = obs::SpanRecorder::global();
    rec.clear();
    rec.setEnabled(true);
    so.preconditioner = PreconditionerKind::Multigrid;
    so.maxIterations = 5;
    try {
        model.steadyNodeTemperatures(powers, so);
    } catch (const NumericError &) {
        // Chain exhausted; the tiers it tried are still recorded.
    }
    rec.setEnabled(false);
    std::vector<std::string> methods;
    for (const obs::SpanRecord &r : rec.snapshot()) {
        for (const obs::EventField &f : r.attrs) {
            if (r.name == "solve.tier" && f.key == "method")
                methods.push_back(f.text);
        }
    }
    rec.clear();
    ASSERT_EQ(methods.size(), 4u);
    EXPECT_EQ(methods[0], "mg-cg");
    EXPECT_EQ(methods[1], "jacobi-cg");
    EXPECT_EQ(methods[2], "bicgstab");
    EXPECT_EQ(methods[3], "dense-lu");
    EXPECT_EQ(std::set<std::string>(methods.begin(), methods.end())
                  .size(),
              methods.size());
}

// ---------------------------------------------------------------
// Sweep-level resilience
// ---------------------------------------------------------------

/**
 * The acceptance sweep: 12 jobs, four of them targeted by faults.
 *  - diehard: every CG attempt diverges, fallback disabled -> the
 *    retries burn out and the job lands `failed` (class numeric).
 *  - staller: uncooperative sleep past the watchdog hard deadline
 *    -> `hung`, thread abandoned (and reaped at sweep end).
 *  - flaky:   first attempt's CG diverges (fallback disabled), the
 *    rule is then exhausted -> the retry succeeds (attempts == 2).
 *  - wobbly:  one poisoned CG residual -> the fallback chain rescues
 *    within the first attempt (fallback_tier >= 1).
 * Everything else must be untouched.
 */
const char *kFaultPlan =
    R"({"name": "faults",
        "base": {"floorplan": "preset:ev6", "power.uniform": 0.5},
        "scenarios": [
          {"name": "job-1", "power.uniform": 0.31},
          {"name": "job-2", "power.uniform": 0.32},
          {"name": "job-3", "power.uniform": 0.33},
          {"name": "job-4", "power.uniform": 0.34},
          {"name": "job-5", "power.uniform": 0.35},
          {"name": "job-6", "power.uniform": 0.36},
          {"name": "job-7", "power.uniform": 0.37},
          {"name": "job-8", "power.uniform": 0.38},
          {"name": "diehard", "power.uniform": 0.41,
           "solver.fallback": "false"},
          {"name": "staller", "power.uniform": 0.42},
          {"name": "flaky", "power.uniform": 0.43,
           "solver.fallback": "false"},
          {"name": "wobbly", "power.uniform": 0.44}]})";

TEST(SweepResilience, FaultCampaignHitsOnlyItsTargets)
{
    const ArmGuard faults(
        "cg.diverge:match=diehard:count=100,"
        "job.stall:match=staller:seconds=1.0,"
        "cg.diverge:match=flaky:count=1,"
        "cg.nan:match=wobbly:count=1");
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kFaultPlan, "faults");
    sweep::SweepOptions opts;
    opts.outDir = freshOutDir("campaign");
    opts.workers = 4;
    opts.jobTimeoutSeconds = 0.2;
    opts.maxRetries = 2;
    opts.retryBackoffSeconds = 0.01;
    // This campaign targets the iterative chain's probes; the
    // superposition fast path would answer most jobs without ever
    // running CG (it has its own fault test below).
    opts.superpositionMinJobs = 0;
    const sweep::SweepSummary sum = sweep::runSweep(plan, opts);

    EXPECT_EQ(sum.total, 12u);
    EXPECT_EQ(sum.executed, 12u);
    EXPECT_EQ(sum.ok, 10u);
    EXPECT_EQ(sum.failed, 1u);
    EXPECT_EQ(sum.hung, 1u);
    EXPECT_EQ(sum.timedOut, 0u);
    EXPECT_GE(sum.retried, 1u);
    EXPECT_GE(sum.fallbacks, 1u);

    const std::vector<sweep::JobResult> results =
        readJournal(opts.outDir);
    ASSERT_EQ(results.size(), 12u);

    const sweep::JobResult *diehard = findByName(results, "diehard");
    ASSERT_NE(diehard, nullptr);
    EXPECT_EQ(diehard->status, sweep::JobStatus::Failed);
    EXPECT_EQ(diehard->errorClass, ErrorClass::Numeric);
    EXPECT_EQ(diehard->attempts, 1u + opts.maxRetries);

    const sweep::JobResult *staller = findByName(results, "staller");
    ASSERT_NE(staller, nullptr);
    EXPECT_EQ(staller->status, sweep::JobStatus::Hung);
    EXPECT_EQ(staller->errorClass, ErrorClass::Timeout);

    const sweep::JobResult *flaky = findByName(results, "flaky");
    ASSERT_NE(flaky, nullptr);
    EXPECT_EQ(flaky->status, sweep::JobStatus::Ok);
    EXPECT_EQ(flaky->attempts, 2u);

    const sweep::JobResult *wobbly = findByName(results, "wobbly");
    ASSERT_NE(wobbly, nullptr);
    EXPECT_EQ(wobbly->status, sweep::JobStatus::Ok);
    EXPECT_GE(wobbly->fallbackTier, 1);

    // The untargeted majority completed first-try, primary-tier.
    for (int i = 1; i <= 8; ++i) {
        const sweep::JobResult *r =
            findByName(results, "job-" + std::to_string(i));
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->status, sweep::JobStatus::Ok) << r->name;
        EXPECT_EQ(r->attempts, 1u) << r->name;
        EXPECT_EQ(r->fallbackTier, 0) << r->name;
    }
}

/** The impulse cache is process-global; isolate it per test. */
class ImpulseCacheGuard
{
  public:
    ImpulseCacheGuard() { ImpulseResponseCache::global().clear(); }
    ~ImpulseCacheGuard() { ImpulseResponseCache::global().clear(); }
};

TEST(SweepResilience, CorruptImpulseMatrixDemotesAndCompletes)
{
    // Ten steady jobs over one stack: superposition-eligible. The
    // first build is poisoned (large finite garbage, so only the
    // independent residual check can see it); the first job must
    // demote to the iterative chain, invalidate the entry, and still
    // complete. The rebuild is clean and later jobs hit the cache.
    const ImpulseCacheGuard cache;
    const ArmGuard faults("impulse.corrupt:count=1");
    const char *planText =
        R"({"name": "superpose",
            "base": {"floorplan": "preset:ev6"},
            "scenarios": [
              {"name": "sp-1", "power.uniform": 0.51},
              {"name": "sp-2", "power.uniform": 0.52},
              {"name": "sp-3", "power.uniform": 0.53},
              {"name": "sp-4", "power.uniform": 0.54},
              {"name": "sp-5", "power.uniform": 0.55},
              {"name": "sp-6", "power.uniform": 0.56},
              {"name": "sp-7", "power.uniform": 0.57},
              {"name": "sp-8", "power.uniform": 0.58},
              {"name": "sp-9", "power.uniform": 0.59},
              {"name": "sp-10", "power.uniform": 0.60}]})";
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(planText, "superpose");
    sweep::SweepOptions opts;
    opts.outDir = freshOutDir("impulse_corrupt");
    opts.workers = 1; // deterministic build order: sp-1 builds
    const sweep::SweepSummary sum = sweep::runSweep(plan, opts);

    EXPECT_EQ(sum.total, 10u);
    EXPECT_EQ(sum.ok, 10u);
    EXPECT_EQ(sum.failed, 0u);
    EXPECT_GE(sum.impulseCacheHits, 1u);
    EXPECT_GE(FaultInjector::global().fired(), 1u);

    const std::vector<sweep::JobResult> results =
        readJournal(opts.outDir);
    ASSERT_EQ(results.size(), 10u);
    // sp-1 saw the corrupt matrix: verification demoted it to the
    // iterative chain, so it completed without a cache hit.
    const sweep::JobResult *first = findByName(results, "sp-1");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->status, sweep::JobStatus::Ok);
    EXPECT_FALSE(first->impulseCacheHit);
    // The tail of the sweep rode the rebuilt (clean) matrix.
    const sweep::JobResult *last = findByName(results, "sp-10");
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->status, sweep::JobStatus::Ok);
    EXPECT_TRUE(last->impulseCacheHit);
}

TEST(SweepResilience, DisarmedRunsAreBitIdentical)
{
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kFaultPlan, "faults");
    sweep::SweepOptions a, b;
    a.outDir = freshOutDir("ident_a");
    b.outDir = freshOutDir("ident_b");
    // One worker: the warm-start handoff order is then identical
    // between the runs, which bit-identity depends on.
    a.workers = b.workers = 1;
    a.writeReports = b.writeReports = false;
    sweep::runSweep(plan, a);
    sweep::runSweep(plan, b);
    const std::vector<sweep::JobResult> ra = readJournal(a.outDir);
    const std::vector<sweep::JobResult> rb = readJournal(b.outDir);
    ASSERT_EQ(ra.size(), 12u);
    for (const sweep::JobResult &r : ra) {
        const sweep::JobResult *s = findByName(rb, r.name);
        ASSERT_NE(s, nullptr) << r.name;
        EXPECT_EQ(r.status, sweep::JobStatus::Ok) << r.name;
        ASSERT_EQ(r.blockCelsius.size(), s->blockCelsius.size());
        for (std::size_t i = 0; i < r.blockCelsius.size(); ++i) {
            EXPECT_EQ(r.blockCelsius[i].second,
                      s->blockCelsius[i].second)
                << r.name << " block " << r.blockCelsius[i].first;
        }
    }
}

const char *kSmallPlan =
    R"({"name": "small",
        "base": {"floorplan": "preset:ev6"},
        "axes": {"power.uniform": [0.3, 0.4, 0.5, 0.6]}})";

TEST(SweepResilience, TruncatedTrailingJournalLineIsQuarantined)
{
    // Simulate a process killed mid-flush: run half the sweep, chop
    // the journal's final line in half (no newline), then resume.
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kSmallPlan, "small");
    sweep::SweepOptions opts;
    opts.outDir = freshOutDir("killed");
    opts.workers = 1;
    opts.stopAfter = 2;
    opts.writeReports = false;
    const sweep::SweepSummary first = sweep::runSweep(plan, opts);
    EXPECT_EQ(first.executed, 2u);

    const std::string journalPath =
        (std::filesystem::path(opts.outDir) / "journal.jsonl")
            .string();
    std::vector<std::string> lines;
    {
        std::ifstream in(journalPath);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u);
    {
        std::ofstream out(journalPath, std::ios::trunc);
        out << lines[0] << "\n";
        out << lines[1].substr(0, lines[1].size() / 2); // kill here
    }

    opts.stopAfter = 0;
    opts.resume = true;
    const sweep::SweepSummary second = sweep::runSweep(plan, opts);
    EXPECT_EQ(second.quarantined, 1u);
    EXPECT_EQ(second.cached, 1u);   // the intact line
    EXPECT_EQ(second.executed, 3u); // the chopped job re-ran + rest
    EXPECT_EQ(second.ok, 3u);

    // The rebuilt journal is fully parsable and complete; the
    // quarantine file preserves the damaged line for forensics.
    const std::vector<sweep::JobResult> results =
        readJournal(opts.outDir);
    EXPECT_EQ(results.size(), 4u);
    std::ifstream quarantine(
        (std::filesystem::path(opts.outDir) / "journal.quarantine")
            .string());
    ASSERT_TRUE(quarantine.good());
    std::string qline;
    ASSERT_TRUE(static_cast<bool>(std::getline(quarantine, qline)));
    EXPECT_NE(qline.find("\"line\":2"), std::string::npos);
    EXPECT_NE(qline.find("\"reason\""), std::string::npos);

    // A third resume re-runs nothing and quarantines nothing.
    const sweep::SweepSummary third = sweep::runSweep(plan, opts);
    EXPECT_EQ(third.executed, 0u);
    EXPECT_EQ(third.cached, 4u);
    EXPECT_EQ(third.quarantined, 0u);
}

TEST(SweepResilience, InjectedJournalCorruptionIsQuarantinedOnResume)
{
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kSmallPlan, "small");
    sweep::SweepOptions opts;
    opts.outDir = freshOutDir("corrupt");
    opts.workers = 1;
    opts.writeReports = false;
    {
        const ArmGuard faults("journal.corrupt:match=small");
        // Axis-expanded jobs are named "small/uniform=<w>"; one line
        // of this run's journal is scrambled as it is written.
        const sweep::SweepSummary first = sweep::runSweep(plan, opts);
        EXPECT_EQ(first.executed, 4u);
        EXPECT_EQ(first.ok, 4u);
    }
    opts.resume = true;
    const sweep::SweepSummary second = sweep::runSweep(plan, opts);
    EXPECT_EQ(second.quarantined, 1u);
    EXPECT_EQ(second.cached, 3u);
    EXPECT_EQ(second.executed, 1u);
    EXPECT_EQ(second.ok, 1u);
    EXPECT_EQ(readJournal(opts.outDir).size(), 4u);
}

TEST(SweepResilience, TaxonomyRoundTripsThroughTheJournal)
{
    const char *planText =
        R"({"name": "taxo",
            "base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5},
            "scenarios": [
              {"name": "good"},
              {"name": "badcfg", "config.cooling": "plasma"},
              {"name": "badsolve", "power.uniform": 0.6,
               "solver.max_iterations": 1,
               "solver.fallback": "false"}]})";
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(planText, "taxo");
    sweep::SweepOptions opts;
    opts.outDir = freshOutDir("taxo");
    opts.workers = 1;
    opts.maxRetries = 1;
    opts.retryBackoffSeconds = 0.01;
    opts.writeReports = false;
    const sweep::SweepSummary sum = sweep::runSweep(plan, opts);
    EXPECT_EQ(sum.ok, 1u);
    EXPECT_EQ(sum.failed, 2u);

    const std::vector<sweep::JobResult> results =
        readJournal(opts.outDir);

    const sweep::JobResult *good = findByName(results, "good");
    ASSERT_NE(good, nullptr);
    EXPECT_EQ(good->errorClass, ErrorClass::None);
    EXPECT_EQ(good->attempts, 1u);

    // Config errors are deterministic: exactly one attempt.
    const sweep::JobResult *badcfg = findByName(results, "badcfg");
    ASSERT_NE(badcfg, nullptr);
    EXPECT_EQ(badcfg->status, sweep::JobStatus::Failed);
    EXPECT_EQ(badcfg->errorClass, ErrorClass::Config);
    EXPECT_EQ(badcfg->attempts, 1u);
    EXPECT_FALSE(badcfg->error.empty());

    // Numeric failures are retried (uselessly here) before giving up.
    const sweep::JobResult *badsolve =
        findByName(results, "badsolve");
    ASSERT_NE(badsolve, nullptr);
    EXPECT_EQ(badsolve->status, sweep::JobStatus::Failed);
    EXPECT_EQ(badsolve->errorClass, ErrorClass::Numeric);
    EXPECT_EQ(badsolve->attempts, 2u);
}

TEST(SweepResilience, CorruptSharedCacheEntryIsEvictedAsMiss)
{
    // cache.corrupt scrambles the entry's bytes as lookup() reads
    // them — the shape of a torn rename or a hand-edited file. The
    // cache must answer "miss", evict the damaged entry, and keep
    // serving cleanly afterwards.
    sweep::JobResult r;
    r.hash = "00000000000000cc";
    r.name = "cached-job";
    r.status = sweep::JobStatus::Ok;
    r.peakCelsius = 81.25;
    r.minCelsius = 50.5;
    r.gradientKelvin = 30.75;
    r.hottestUnit = "alu";
    r.heatPrimaryWatts = 1.0;
    r.cgIterations = 12;
    r.blockCelsius = {{"alu", 81.25}};

    const fabric::ResultCache cache(freshOutDir("cache_corrupt"));
    cache.store(r);
    sweep::JobResult out;
    ASSERT_TRUE(cache.lookup(r.hash, out));
    EXPECT_EQ(out.toJsonLine(), r.toJsonLine());
    {
        const ArmGuard faults("cache.corrupt");
        EXPECT_FALSE(cache.lookup(r.hash, out));
        EXPECT_GE(FaultInjector::global().fired(), 1u);
        // Evicted, so the rot cannot serve a second reader.
        EXPECT_FALSE(
            std::filesystem::exists(cache.entryPath(r.hash)));
    }
    // A fresh store repopulates; disarmed lookups are exact again.
    cache.store(r);
    ASSERT_TRUE(cache.lookup(r.hash, out));
    EXPECT_EQ(out.toJsonLine(), r.toJsonLine());
}

TEST(SweepResilience, OldJournalLinesWithoutResilienceFieldsLoad)
{
    // A journal written by a pre-resilience build has no error_class
    // / attempts / fallback_tier; loading must default them.
    const std::string dir = freshOutDir("oldjournal");
    std::filesystem::create_directories(dir);
    {
        std::ofstream out(
            (std::filesystem::path(dir) / "journal.jsonl").string());
        out << R"({"hash":"00000000000000aa","name":"legacy",)"
            << R"("status":"ok","error":"","wall_s":0.1,)"
            << R"("peak_c":80.0,"min_c":50.0,"gradient_k":30.0,)"
            << R"("hottest":"alu","heat_primary_w":1.0,)"
            << R"("heat_secondary_w":0.0,"cg_iterations":10,)"
            << R"("warm_start":false,"blocks":{"alu":80.0}})"
            << "\n";
    }
    sweep::ResultStore store(dir);
    EXPECT_EQ(store.loadJournal(), 1u);
    EXPECT_EQ(store.quarantined(), 0u);
    const sweep::JobResult *r =
        store.findResult("00000000000000aa");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->errorClass, ErrorClass::None);
    EXPECT_EQ(r->attempts, 1u);
    EXPECT_EQ(r->fallbackTier, 0);
}

} // namespace
} // namespace irtherm
