/**
 * @file
 * Sparse Cholesky tests: agreement with dense LU, the ordering and
 * fill bookkeeping, pivot failures, and the implicit integrators'
 * factored step (agreement with the CG step, the chol.corrupt
 * rejection path, the factor cap, thread-count bit-identity).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "base/fault_injection.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "core/package.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "numeric/dense_matrix.hh"
#include "numeric/iterative.hh"
#include "numeric/lu.hh"
#include "numeric/ode.hh"
#include "numeric/sparse_cholesky.hh"
#include "obs/metrics.hh"

namespace irtherm
{
namespace
{

/**
 * A seeded SPD matrix: a random conductance network (each node linked
 * to about @p links random others) plus a positive ground term on
 * every node.
 */
CsrMatrix
randomSpd(std::size_t n, std::size_t links, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    SparseBuilder b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        b.stampGroundConductance(i, rng.uniform() + 0.01);
        for (std::size_t k = 0; k < links && n > 1; ++k) {
            const std::size_t j = rng.index(n);
            if (j != i)
                b.stampConductance(i, j, rng.uniform() * 10.0);
        }
    }
    return b.build();
}

DenseMatrix
toDense(const CsrMatrix &a)
{
    DenseMatrix d(a.rows(), a.cols());
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            d(r, ci[k]) = av[k];
    return d;
}

std::vector<double>
seededVector(std::size_t n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform() * 2.0 - 1.0;
    return v;
}

/** Factor @p a, solve one seeded rhs and compare with dense LU. */
void
expectMatchesLu(const CsrMatrix &a, std::uint64_t seed)
{
    SparseCholesky chol(a);
    ASSERT_TRUE(chol.factor(a)) << chol.failure();
    const std::vector<double> b = seededVector(a.rows(), seed);
    std::vector<double> x;
    chol.solve(b, x);
    const std::vector<double> want = LuDecomposition(toDense(a)).solve(b);
    double scale = 0.0;
    for (double v : want)
        scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(x[i], want[i], 1e-12 * scale) << "entry " << i;
}

TEST(SparseCholesky, MatchesDenseLuOnSeededSpdMatrices)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        expectMatchesLu(randomSpd(60 + 20 * seed, 1 + seed % 4, seed),
                        100 + seed);
}

TEST(SparseCholesky, OneByOneAndDiagonalOnly)
{
    SparseBuilder one(1, 1);
    one.add(0, 0, 4.0);
    const CsrMatrix a = one.build();
    SparseCholesky chol(a);
    ASSERT_TRUE(chol.factor(a));
    EXPECT_EQ(chol.factorNonZeros(), 1u);
    std::vector<double> x;
    chol.solve({2.0}, x);
    EXPECT_DOUBLE_EQ(x[0], 0.5);

    SparseBuilder diag(9, 9);
    for (std::size_t i = 0; i < 9; ++i)
        diag.add(i, i, 1.0 + static_cast<double>(i));
    const CsrMatrix d = diag.build();
    SparseCholesky dc(d);
    EXPECT_EQ(dc.factorNonZeros(), 9u); // no fill at all
    expectMatchesLu(d, 7);
}

TEST(SparseCholesky, OneSidedExplicitZeroStaysInsideTheStructure)
{
    // A stored 0 at (0, 7) with nothing at (7, 0): numerically
    // symmetric, structurally not. The ordering, the counts and L's
    // structure all come from the symmetrized pattern.
    SparseBuilder b(8, 8);
    for (std::size_t i = 0; i < 8; ++i) {
        b.stampGroundConductance(i, 1.0);
        if (i + 1 < 8)
            b.stampConductance(i, i + 1, 2.0);
    }
    b.add(0, 7, 0.0);
    expectMatchesLu(b.build(), 17);
}

TEST(SparseCholesky, DenseRowAndDisconnectedComponents)
{
    // A chain whose last node is wired to every other chain node
    // (359 neighbours, over the 10·√n = 200 density threshold, so it
    // is ordered last), next to a disconnected random component.
    const std::size_t chain = 360;
    const std::size_t n = chain + 40;
    SplitMix64 rng(11);
    SparseBuilder b(n, n);
    for (std::size_t i = 0; i < chain; ++i) {
        b.stampGroundConductance(i, 0.1);
        if (i + 1 < chain - 1)
            b.stampConductance(i, i + 1, 1.0 + rng.uniform());
        if (i != chain - 1)
            b.stampConductance(i, chain - 1, 0.5 + rng.uniform());
    }
    const CsrMatrix other = randomSpd(40, 2, 12);
    const auto &rp = other.rowPointers();
    const auto &ci = other.columnIndices();
    const auto &av = other.storedValues();
    for (std::size_t r = 0; r < 40; ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            b.add(chain + r, chain + ci[k], av[k]);
    const CsrMatrix a = b.build();

    SparseCholesky chol(a);
    EXPECT_EQ(chol.permutation().back(), chain - 1);
    // Hub last: the chain eliminates without fill, so L holds the
    // diagonal, the chain links, the hub's column and the component.
    EXPECT_LE(chol.factorNonZeros(), n + 2 * chain + other.nonZeros());
    expectMatchesLu(a, 13);
}

/**
 * nnz(L) by plain graph elimination on a dense boolean matrix, in
 * the factor's pivot order: an independent count of the fill.
 */
std::size_t
eliminationFill(const CsrMatrix &a, const std::vector<std::size_t> &perm)
{
    const std::size_t n = a.rows();
    std::vector<std::size_t> pos(n);
    for (std::size_t k = 0; k < n; ++k)
        pos[perm[k]] = k;
    std::vector<std::vector<char>> adj(n, std::vector<char>(n, 0));
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            adj[pos[r]][pos[ci[k]]] = adj[pos[ci[k]]][pos[r]] = 1;
    std::size_t count = 0;
    for (std::size_t k = 0; k < n; ++k) {
        std::vector<std::size_t> later;
        for (std::size_t j = k + 1; j < n; ++j)
            if (adj[k][j])
                later.push_back(j);
        count += 1 + later.size();
        for (std::size_t p : later)
            for (std::size_t q : later)
                adj[p][q] = 1;
    }
    return count;
}

TEST(SparseCholesky, OrderingIsAPermutationAndFillMatchesSymbolicCount)
{
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        const CsrMatrix a = randomSpd(150, 2, seed);
        SparseCholesky chol(a);
        const std::vector<std::size_t> &perm = chol.permutation();
        ASSERT_EQ(perm.size(), a.rows());
        const std::set<std::size_t> distinct(perm.begin(), perm.end());
        EXPECT_EQ(distinct.size(), a.rows());
        EXPECT_LT(*distinct.rbegin(), a.rows());
        EXPECT_EQ(chol.factorNonZeros(), eliminationFill(a, perm));
        // Minimum degree must beat the natural order's fill here.
        std::vector<std::size_t> natural(a.rows());
        for (std::size_t i = 0; i < natural.size(); ++i)
            natural[i] = i;
        EXPECT_LT(chol.factorNonZeros(), eliminationFill(a, natural));
    }
}

TEST(SparseCholesky, IndefiniteZeroPivotAndNanReportFailure)
{
    // [[1 2] [2 1]]: eigenvalues 3 and -1.
    SparseBuilder ind(2, 2);
    ind.add(0, 0, 1.0);
    ind.add(1, 1, 1.0);
    ind.add(0, 1, 2.0);
    ind.add(1, 0, 2.0);
    // [[1 1] [1 1]]: singular, the second pivot is exactly zero.
    SparseBuilder zero(2, 2);
    zero.add(0, 0, 1.0);
    zero.add(1, 1, 1.0);
    zero.add(0, 1, 1.0);
    zero.add(1, 0, 1.0);
    // An off-diagonal NaN reaches a later pivot.
    SparseBuilder nan(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        nan.add(i, i, 4.0);
    nan.add(0, 2, std::numeric_limits<double>::quiet_NaN());
    nan.add(2, 0, std::numeric_limits<double>::quiet_NaN());

    for (const CsrMatrix &a : {ind.build(), zero.build(), nan.build()}) {
        SparseCholesky chol(a);
        EXPECT_FALSE(chol.factor(a));
        EXPECT_FALSE(chol.factored());
        EXPECT_NE(chol.failure().find("pivot"), std::string::npos)
            << chol.failure();
    }
}

TEST(SparseCholesky, IntegratorOnIndefiniteSystemAnswersThroughCg)
{
    // C/dt + G = diag(1, -1) with C/dt = 1 does not factor, so the
    // step goes through CG, which converges here because the residual
    // stays in the positive eigenspace.
    SparseBuilder g(2, 2);
    g.add(1, 1, -2.0);
    const CsrMatrix gm = g.build();
    BackwardEulerIntegrator be(gm, {1.0, 1.0}, 1.0);
    EXPECT_FALSE(be.factored());
    std::vector<double> t = {1.0, 0.0};
    be.step(t, {2.0, 0.0});
    EXPECT_NEAR(t[0], 3.0, 1e-12);
    EXPECT_NEAR(t[1], 0.0, 1e-12);
}

// ---------------------------------------------------------------------
// The integrators' factored step on real stacks
// ---------------------------------------------------------------------

ModelOptions
grid(std::size_t n)
{
    ModelOptions o;
    o.mode = ModelMode::Grid;
    o.gridNx = n;
    o.gridNy = n;
    return o;
}

/** Seeded per-cell power for step @p s, changing every 50 steps. */
std::vector<double>
cellPower(const StackModel &model, std::size_t s)
{
    SplitMix64 rng(1000 + s / 50);
    std::vector<double> p(model.nodeCount(), 0.0);
    const std::size_t off = model.siliconNodeBegin();
    for (std::size_t i = 0; i < model.partitionCells(); ++i)
        p[off + i] = rng.uniform() * 40.0 /
                     static_cast<double>(model.partitionCells());
    return p;
}

/**
 * CG converged to 1e-13: at the integrators' default 1e-10 the CG
 * path's own error reaches 1e-8 to 1e-7 K on these stacks, so a
 * looser reference could not resolve the 1e-9 K agreement.
 */
IterativeOptions
tightCg()
{
    IterativeOptions o;
    o.tolerance = 1e-13;
    return o;
}

/** Backward Euler through CG, the path every step took before. */
std::vector<double>
cgBackwardEuler(const StackModel &model, double dt, std::size_t steps)
{
    std::vector<double> capOverDt = model.capacitance();
    for (double &c : capOverDt)
        c /= dt;
    const CsrMatrix system = addDiagonal(model.conductance(), capOverDt);
    std::vector<double> t(model.nodeCount(), 0.0), rhs(t.size());
    for (std::size_t s = 0; s < steps; ++s) {
        const std::vector<double> p = cellPower(model, s);
        for (std::size_t i = 0; i < t.size(); ++i)
            rhs[i] = capOverDt[i] * t[i] + p[i];
        const IterativeResult r =
            conjugateGradient(system, rhs, t, tightCg());
        EXPECT_TRUE(r.converged);
        t = r.x;
    }
    return t;
}

/** Crank-Nicolson through CG. */
std::vector<double>
cgCrankNicolson(const StackModel &model, double dt, std::size_t steps)
{
    const CsrMatrix &g = model.conductance();
    std::vector<double> capOverDt = model.capacitance();
    for (double &c : capOverDt)
        c /= dt;
    SparseBuilder b(g.rows(), g.cols());
    const auto &rp = g.rowPointers();
    const auto &ci = g.columnIndices();
    const auto &av = g.storedValues();
    for (std::size_t r = 0; r < g.rows(); ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            b.add(r, ci[k], 0.5 * av[k]);
    for (std::size_t r = 0; r < g.rows(); ++r)
        b.add(r, r, capOverDt[r]);
    const CsrMatrix system = b.build();
    std::vector<double> t(model.nodeCount(), 0.0), rhs(t.size());
    for (std::size_t s = 0; s < steps; ++s) {
        const std::vector<double> p = cellPower(model, s);
        for (std::size_t i = 0; i < t.size(); ++i)
            rhs[i] = capOverDt[i] * t[i] + p[i];
        g.multiplyAccumulate(t, rhs, -0.5);
        const IterativeResult r =
            conjugateGradient(system, rhs, t, tightCg());
        EXPECT_TRUE(r.converged);
        t = r.x;
    }
    return t;
}

template <typename Integrator>
std::vector<double>
factoredReplay(const StackModel &model, double dt, std::size_t steps)
{
    Integrator integ(model.conductance(), model.capacitance(), dt);
    EXPECT_TRUE(integ.factored());
    std::vector<double> t(model.nodeCount(), 0.0);
    for (std::size_t s = 0; s < steps; ++s)
        integ.step(t, cellPower(model, s));
    return t;
}

void
expectWithin(const std::vector<double> &a, const std::vector<double> &b,
             double tol)
{
    ASSERT_EQ(a.size(), b.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    EXPECT_LE(worst, tol);
}

struct StackCase
{
    const char *name;
    PackageConfig pkg;
    ModelOptions opts;
};

std::vector<StackCase>
ev6Cases()
{
    return {{"grid-16 OIL", PackageConfig::makeOilSilicon(10.0), grid(16)},
            {"grid-16 AIR", PackageConfig::makeAirSink(0.3), grid(16)},
            {"block AIR", PackageConfig::makeAirSink(0.3), ModelOptions{}}};
}

TEST(FactoredStep, BackwardEulerMatchesCgOverTwoHundredSteps)
{
    const Floorplan fp = floorplans::alphaEv6();
    for (const StackCase &c : ev6Cases()) {
        SCOPED_TRACE(c.name);
        const StackModel model(fp, c.pkg, c.opts);
        expectWithin(
            factoredReplay<BackwardEulerIntegrator>(model, 1e-3, 200),
            cgBackwardEuler(model, 1e-3, 200), 1e-9);
    }
}

TEST(FactoredStep, CrankNicolsonMatchesCgOverTwoHundredSteps)
{
    const Floorplan fp = floorplans::alphaEv6();
    for (const StackCase &c : ev6Cases()) {
        SCOPED_TRACE(c.name);
        const StackModel model(fp, c.pkg, c.opts);
        expectWithin(
            factoredReplay<CrankNicolsonIntegrator>(model, 1e-3, 200),
            cgCrankNicolson(model, 1e-3, 200), 1e-9);
    }
}

/** Arm the global injector for one test; always disarm on exit. */
struct ArmGuard
{
    explicit ArmGuard(const std::string &spec)
    {
        FaultInjector::global().arm(spec);
    }
    ~ArmGuard() { FaultInjector::global().disarm(); }
};

TEST(FactoredStep, CorruptedAnswerIsRejectedAndCgAnswersTheStep)
{
    const StackModel model(floorplans::alphaEv6(),
                           PackageConfig::makeOilSilicon(10.0), grid(16));
    const std::vector<double> clean =
        factoredReplay<BackwardEulerIntegrator>(model, 1e-3, 120);

    auto &reg = obs::MetricsRegistry::global();
    const std::uint64_t rejected0 =
        reg.counter("numeric.chol.rejected").value();
    const std::uint64_t solves0 = reg.counter("numeric.chol.solves").value();
    std::vector<double> armed;
    {
        ArmGuard guard("chol.corrupt:count=1:after=40");
        armed = factoredReplay<BackwardEulerIntegrator>(model, 1e-3, 120);
        EXPECT_EQ(FaultInjector::global().fired(), 1u);
    }
    expectWithin(armed, clean, 1e-9);
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(reg.counter("numeric.chol.rejected").value() - rejected0,
                  1u);
        EXPECT_EQ(reg.counter("numeric.chol.solves").value() - solves0,
                  119u);
    }
}

TEST(FactoredStep, FactorCapSeparatesGrid16OilFromGrid64Air)
{
    const Floorplan fp = floorplans::alphaEv6();
    const double dt = 1e-3;
    for (const bool large : {false, true}) {
        const StackModel model(fp,
                               large ? PackageConfig::makeAirSink(0.3)
                                     : PackageConfig::makeOilSilicon(10.0),
                               grid(large ? 64 : 16));
        std::vector<double> capOverDt = model.capacitance();
        for (double &c : capOverDt)
            c /= dt;
        const CsrMatrix system =
            addDiagonal(model.conductance(), capOverDt);
        const std::size_t fill = SparseCholesky(system).factorNonZeros();
        EXPECT_EQ(fill > kImplicitFactorCap, large) << fill;

        BackwardEulerIntegrator be(model.conductance(), model.capacitance(),
                                   dt);
        EXPECT_EQ(be.factored(), !large);
        // Either way a step answers the same system.
        std::vector<double> t(model.nodeCount(), 0.0);
        const std::vector<double> p = cellPower(model, 0);
        be.step(t, p);
        const std::vector<double> want =
            conjugateGradient(system, p, {}, tightCg()).x;
        expectWithin(t, want, 1e-9);
    }
}

TEST(FactoredStep, ReplayIsBitIdenticalWithPoolOffAndAtFourThreads)
{
    // Each discovered test runs in its own process, so this override
    // precedes the pool's first use. Grid 32 puts the rhs, residual
    // and SpMV kernels over their thread-pool thresholds.
    ThreadPool::setGlobalThreads(4);
    const bool saved = ThreadPool::parallelEnabled();
    const StackModel model(floorplans::alphaEv6(),
                           PackageConfig::makeAirSink(0.3), grid(32));
    ThreadPool::setParallelEnabled(true);
    const std::vector<double> par =
        factoredReplay<BackwardEulerIntegrator>(model, 1e-3, 60);
    ThreadPool::setParallelEnabled(false);
    const std::vector<double> ser =
        factoredReplay<BackwardEulerIntegrator>(model, 1e-3, 60);
    ThreadPool::setParallelEnabled(saved);
    for (std::size_t i = 0; i < par.size(); ++i)
        ASSERT_EQ(par[i], ser[i]) << "node " << i;
}

TEST(FactoredStep, MicrochannelKeepsBiCgStab)
{
    const Floorplan fp = floorplans::uniformChip(2, 0.01, 0.01);
    const StackModel model(fp, PackageConfig::makeMicrochannel(1.0),
                           grid(8));
    ASSERT_TRUE(model.hasAdvection());
    BackwardEulerIntegrator be(model.conductance(), model.capacitance(),
                               1e-3);
    EXPECT_FALSE(be.factored());
    std::vector<double> t(model.nodeCount(), 0.0);
    const std::vector<double> p = cellPower(model, 0);
    be.step(t, p);
    std::vector<double> capOverDt = model.capacitance();
    for (double &c : capOverDt)
        c /= 1e-3;
    const CsrMatrix system = addDiagonal(model.conductance(), capOverDt);
    std::vector<double> resid = p;
    system.multiplyAccumulate(t, resid, -1.0);
    EXPECT_LE(norm2(resid), 1e-9 * norm2(p));
}

} // namespace
} // namespace irtherm
