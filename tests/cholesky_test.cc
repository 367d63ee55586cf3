/**
 * @file
 * Sparse Cholesky tests: agreement with dense LU, the ordering,
 * supernode and fill bookkeeping, the blocked k-column solve, pivot
 * failures, the implicit integrators' factored step (agreement with
 * the CG step, the chol.corrupt rejection path, the factor cap,
 * thread-count bit-identity), and the direct impulse build
 * (agreement with the MG-built matrix, per-column fallback, the
 * factor cap, thread-count bit-identity).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "base/fault_injection.hh"
#include "base/rng.hh"
#include "core/package.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "numeric/dense_matrix.hh"
#include "numeric/direct_solve.hh"
#include "numeric/impulse_cache.hh"
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

TEST(SparseCholesky, WideSupernodesMatchDenseLu)
{
    // Fully dense SPD matrices factor as one supernode as wide as the
    // matrix, which runs the in-panel blocking and every kernel tile
    // edge (2, 3 and 17 leave partial four-wide tiles, 17 and 40
    // partial 16-column panels).
    for (const std::size_t n : {1u, 2u, 3u, 17u, 40u}) {
        SplitMix64 rng(n);
        SparseBuilder b(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            b.stampGroundConductance(i, 1.0 + rng.uniform());
            for (std::size_t j = i + 1; j < n; ++j)
                b.stampConductance(i, j, rng.uniform());
        }
        const CsrMatrix a = b.build();
        EXPECT_EQ(SparseCholesky(a).supernodeCount(), 1u) << n;
        expectMatchesLu(a, 50 + n);
    }

    // A 2-D grid network: the order groups its separators into wide
    // supernodes, so wide ones update wide ones through the kernels.
    const std::size_t side = 18;
    SplitMix64 rng(3);
    SparseBuilder b(side * side, side * side);
    for (std::size_t y = 0; y < side; ++y) {
        for (std::size_t x = 0; x < side; ++x) {
            const std::size_t i = y * side + x;
            b.stampGroundConductance(i, 0.01 + 0.1 * rng.uniform());
            if (x + 1 < side)
                b.stampConductance(i, i + 1, 1.0 + rng.uniform());
            if (y + 1 < side)
                b.stampConductance(i, i + side, 1.0 + rng.uniform());
        }
    }
    const CsrMatrix a = b.build();
    const SparseCholesky chol(a);
    std::size_t widest = 0;
    for (std::size_t s = 0; s < chol.supernodeCount(); ++s)
        widest = std::max(widest,
                          chol.supernodes()[s + 1] - chol.supernodes()[s]);
    EXPECT_GE(widest, 8u);
    expectMatchesLu(a, 31);

    // A connected 12×12×6 grid: a supernode wider than one 16-column
    // panel that is not the last has rows below its diagonal block,
    // so its panels update later supernodes one panel at a time.
    const std::size_t edge = 12, layers = 6;
    SparseBuilder g(edge * edge * layers, edge * edge * layers);
    for (std::size_t z = 0; z < layers; ++z) {
        for (std::size_t y = 0; y < edge; ++y) {
            for (std::size_t x = 0; x < edge; ++x) {
                const std::size_t i = (z * edge + y) * edge + x;
                g.stampGroundConductance(i, 0.01 + 0.1 * rng.uniform());
                if (x + 1 < edge)
                    g.stampConductance(i, i + 1, 1.0 + rng.uniform());
                if (y + 1 < edge)
                    g.stampConductance(i, i + edge, 1.0 + rng.uniform());
                if (z + 1 < layers)
                    g.stampConductance(i, i + edge * edge,
                                       1.0 + rng.uniform());
            }
        }
    }
    const CsrMatrix cube = g.build();
    const SparseCholesky cubeChol(cube);
    bool widePanelsBelow = false;
    for (std::size_t s = 0; s + 1 < cubeChol.supernodeCount(); ++s)
        widePanelsBelow |=
            cubeChol.supernodes()[s + 1] - cubeChol.supernodes()[s] > 16;
    EXPECT_TRUE(widePanelsBelow);
    expectMatchesLu(cube, 71);
}

/**
 * L's column counts by plain graph elimination on a dense boolean
 * matrix, in the factor's pivot order: an independent count of the
 * fill.
 */
std::vector<std::size_t>
eliminationCounts(const CsrMatrix &a, const std::vector<std::size_t> &perm)
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
    std::vector<std::size_t> count(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::vector<std::size_t> later;
        for (std::size_t j = k + 1; j < n; ++j)
            if (adj[k][j])
                later.push_back(j);
        count[k] = 1 + later.size();
        for (std::size_t p : later)
            for (std::size_t q : later)
                adj[p][q] = 1;
    }
    return count;
}

std::size_t
eliminationFill(const CsrMatrix &a, const std::vector<std::size_t> &perm)
{
    std::size_t fill = 0;
    for (std::size_t c : eliminationCounts(a, perm))
        fill += c;
    return fill;
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

ModelOptions grid(std::size_t n);

TEST(SparseCholesky, SupernodesPartitionTheColumnsAndKeepTheFillCount)
{
    std::vector<CsrMatrix> cases;
    for (std::uint64_t seed = 31; seed <= 34; ++seed)
        cases.push_back(randomSpd(150, 1 + seed % 3, seed));
    const StackModel oil(floorplans::alphaEv6(),
                         PackageConfig::makeOilSilicon(10.0), grid(16));
    cases.push_back(oil.conductance());
    for (const CsrMatrix &a : cases) {
        const SparseCholesky chol(a);
        const std::vector<std::size_t> &starts = chol.supernodes();
        ASSERT_EQ(starts.size(), chol.supernodeCount() + 1);
        EXPECT_EQ(starts.front(), 0u);
        EXPECT_EQ(starts.back(), a.rows());
        for (std::size_t s = 0; s + 1 < starts.size(); ++s)
            ASSERT_LT(starts[s], starts[s + 1]) << "supernode " << s;

        // Within a supernode each column holds the next one's rows
        // plus its own diagonal.
        const std::vector<std::size_t> count =
            eliminationCounts(a, chol.permutation());
        std::size_t fill = 0;
        double flops = 0.0;
        for (std::size_t c : count) {
            fill += c;
            flops += static_cast<double>(c) * static_cast<double>(c);
        }
        EXPECT_EQ(chol.factorNonZeros(), fill);
        EXPECT_EQ(chol.factorFlops(), flops);
        for (std::size_t s = 0; s + 1 < starts.size(); ++s)
            for (std::size_t j = starts[s] + 1; j < starts[s + 1]; ++j)
                ASSERT_EQ(count[j - 1], count[j] + 1) << "column " << j;
    }
    // The stack's order groups columns: far fewer supernodes than
    // columns.
    EXPECT_LT(SparseCholesky(oil.conductance()).supernodeCount(),
              oil.nodeCount());
}

TEST(SparseCholesky, BlockedSolveEqualsSingleSolves)
{
    // The k-column and one-column substitutions are written apart, and
    // each entry takes the same operations in the same order in both,
    // so their answers agree exactly. The inputs: a random network,
    // EV6 grid-16 AIR's G, the backward-Euler system C/dt + G of EV6
    // grid-16 OIL at dt = 1 ms (a transient replay's step), and EV6
    // grid-32 AIR's G, whose widest supernodes span several panels.
    const StackModel air(floorplans::alphaEv6(),
                         PackageConfig::makeAirSink(0.3), grid(16));
    const StackModel oil(floorplans::alphaEv6(),
                         PackageConfig::makeOilSilicon(10.0), grid(16));
    const StackModel air32(floorplans::alphaEv6(),
                           PackageConfig::makeAirSink(0.3), grid(32));
    std::vector<double> capOverDt = oil.capacitance();
    for (double &c : capOverDt)
        c /= 1e-3;
    for (const CsrMatrix &a :
         {randomSpd(200, 3, 41), air.conductance(),
          addDiagonal(oil.conductance(), capOverDt), air32.conductance()}) {
        SparseCholesky chol(a);
        ASSERT_TRUE(chol.factor(a)) << chol.failure();
        const std::size_t n = a.rows();
        for (const std::size_t k : {1u, 3u, 18u}) {
            SCOPED_TRACE(k);
            const std::vector<double> b = seededVector(n * k, 60 + k);
            std::vector<double> xs = b;
            chol.solve(xs, k);
            std::vector<double> col(n), x;
            for (std::size_t r = 0; r < k; ++r) {
                std::copy(b.begin() + static_cast<std::ptrdiff_t>(r * n),
                          b.begin() +
                              static_cast<std::ptrdiff_t>((r + 1) * n),
                          col.begin());
                chol.solve(col, x);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(xs[r * n + i], x[i])
                        << "n " << n << " column " << r << " entry " << i;
            }
        }
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
        EXPECT_EQ(fill > kDirectFactorCap, large) << fill;

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

// ---------------------------------------------------------------------
// The direct impulse build
// ---------------------------------------------------------------------

/**
 * The impulse-response matrix of @p m, built by a first superposed
 * solve under @p key and read back from the cache.
 */
ImpulseResponseMatrix
impulseMatrix(const StackModel &m, std::uint64_t key)
{
    ImpulseResponseCache &cache = ImpulseResponseCache::global();
    cache.invalidate(key);
    StackModel::SteadySolveOptions so;
    so.superposition = true;
    so.stackKey = key;
    StackModel::SteadySolveInfo info;
    m.steadyNodeTemperatures(
        std::vector<double>(m.floorplan().blockCount(), 1.0), so, &info);
    EXPECT_EQ(info.method, "superposition");
    const auto matrix = cache.acquire(
        key, [] { return std::shared_ptr<ImpulseResponseMatrix>(); });
    cache.invalidate(key);
    if (!matrix) {
        ADD_FAILURE() << "no cached matrix";
        return {};
    }
    return *matrix;
}

std::uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

TEST(ImpulseBuild, DirectMatchesMultigridWithinANanokelvinPerWatt)
{
    struct Case
    {
        const char *name;
        bool athlon;
        bool oil;
        std::size_t grid;
    };
    for (const Case &c : {Case{"ev6 grid-16 air", false, false, 16},
                          Case{"ev6 grid-16 oil", false, true, 16},
                          Case{"ev6 grid-32 air", false, false, 32},
                          Case{"ev6 grid-32 oil", false, true, 32},
                          Case{"athlon grid-16 air", true, false, 16},
                          Case{"athlon grid-16 oil", true, true, 16}}) {
        SCOPED_TRACE(c.name);
        const StackModel m(c.athlon ? floorplans::athlon64()
                                    : floorplans::alphaEv6(),
                           c.oil ? PackageConfig::makeOilSilicon(10.0)
                                 : PackageConfig::makeAirSink(0.3),
                           grid(c.grid));
        const std::uint64_t factors = counterValue("numeric.chol.factors");
        const ImpulseResponseMatrix direct = impulseMatrix(m, 0xd1);
        if (obs::kMetricsEnabled) {
            EXPECT_EQ(counterValue("numeric.chol.factors") - factors, 1u);
        }
        ImpulseResponseMatrix iterative;
        {
            // Every direct column poisoned: each one is answered by
            // the MG-CG chain instead.
            ArmGuard guard("chol.corrupt:count=1000000");
            iterative = impulseMatrix(m, 0x36);
            EXPECT_EQ(FaultInjector::global().fired(),
                      m.floorplan().blockCount());
        }
        ASSERT_EQ(direct.values.size(), iterative.values.size());
        double worst = 0.0;
        for (std::size_t i = 0; i < direct.values.size(); ++i)
            worst = std::max(worst, std::abs(direct.values[i] -
                                             iterative.values[i]));
        EXPECT_LE(worst, 1e-9);
    }
}

TEST(ImpulseBuild, OneCorruptColumnIsDemotedAndAnswersStillPass)
{
    const StackModel m(floorplans::alphaEv6(),
                       PackageConfig::makeOilSilicon(10.0), grid(16));
    const ImpulseResponseMatrix clean = impulseMatrix(m, 0xc1);

    const std::uint64_t rejected = counterValue("numeric.chol.rejected");
    const std::uint64_t solves = counterValue("numeric.chol.solves");
    const std::uint64_t setups = counterValue("numeric.mg.setups");
    constexpr std::uint64_t kKey = 0xc2;
    ImpulseResponseCache::global().invalidate(kKey);
    StackModel::SteadySolveOptions so;
    so.superposition = true;
    so.stackKey = kKey;
    {
        ArmGuard guard("chol.corrupt:count=1");
        for (std::uint64_t trial = 0; trial < 4; ++trial) {
            SplitMix64 rng(trial);
            std::vector<double> p(m.floorplan().blockCount());
            for (double &w : p)
                w = rng.uniform() * 4.0;
            StackModel::SteadySolveInfo info;
            const std::vector<double> got =
                m.steadyNodeTemperatures(p, so, &info);
            EXPECT_EQ(info.method, "superposition") << trial;
            EXPECT_EQ(info.impulseCacheHit, trial > 0);
            // The clean matrix's answer, superposed by hand.
            std::vector<double> want;
            clean.superpose(p, want);
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_NEAR(got[i] - m.packageConfig().ambient, want[i],
                            1e-9)
                    << "node " << i;
        }
        EXPECT_EQ(FaultInjector::global().fired(), 1u);
    }
    ImpulseResponseCache::global().invalidate(kKey);
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const std::size_t blocks = m.floorplan().blockCount();
    EXPECT_EQ(counterValue("numeric.chol.rejected") - rejected, 1u);
    EXPECT_EQ(counterValue("numeric.chol.solves") - solves, blocks - 1);
    // The demoted column built the MG hierarchy on first use.
    EXPECT_EQ(counterValue("numeric.mg.setups") - setups, 1u);
}

TEST(ImpulseBuild, SuperposeKeepsTheColumnByColumnBits)
{
    // Entries spread over twelve decades, so any change in the order
    // an entry's products are added shows in its last bits; about a
    // third of the powers are zero (skipped columns), and block
    // counts 1..19 leave every remainder of a four-column group.
    SplitMix64 rng(0x5e);
    for (std::size_t blocks = 1; blocks <= 19; ++blocks) {
        for (std::size_t nodes : {1u, 5u, 257u}) {
            ImpulseResponseMatrix r;
            r.nodes = nodes;
            r.blocks = blocks;
            r.values.resize(nodes * blocks);
            for (double &v : r.values)
                v = (rng.uniform() - 0.5) *
                    std::pow(10.0, 12.0 * rng.uniform() - 6.0);
            std::vector<double> powers(blocks);
            for (double &p : powers)
                p = rng.index(3) == 0 ? 0.0 : 2.0 * rng.uniform() - 0.5;
            std::vector<double> expect(nodes, 0.0);
            for (std::size_t b = 0; b < blocks; ++b) {
                if (powers[b] == 0.0)
                    continue;
                for (std::size_t i = 0; i < nodes; ++i)
                    expect[i] += powers[b] * r.values[b * nodes + i];
            }
            std::vector<double> rise{7.0};
            r.superpose(powers, rise);
            ASSERT_EQ(rise.size(), nodes);
            for (std::size_t i = 0; i < nodes; ++i)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(rise[i]),
                          std::bit_cast<std::uint64_t>(expect[i]))
                    << blocks << " blocks, " << nodes << " nodes, entry "
                    << i;
        }
    }
}

TEST(ImpulseBuild, StackPastTheFactorCapBuildsWithMultigrid)
{
    // One block keeps the MG build to a single column; grid 64 under
    // air puts G's factor over the cap the integrators share.
    const StackModel m(floorplans::uniformChip(1, 0.016, 0.016),
                       PackageConfig::makeAirSink(0.3), grid(64));
    ASSERT_GT(SparseCholesky(m.conductance()).factorNonZeros(),
              kDirectFactorCap);
    const std::uint64_t factors = counterValue("numeric.chol.factors");
    const std::uint64_t setups = counterValue("numeric.mg.setups");
    const ImpulseResponseMatrix r = impulseMatrix(m, 0xa1);
    EXPECT_EQ(r.values.size(), m.nodeCount());
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    EXPECT_EQ(counterValue("numeric.chol.factors") - factors, 0u);
    EXPECT_EQ(counterValue("numeric.mg.setups") - setups, 1u);
}

} // namespace
} // namespace irtherm
