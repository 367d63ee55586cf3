/**
 * @file
 * Unit tests for the numeric module: dense/sparse matrices, LU, CG,
 * integrators, exponential fitting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "core/package.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "numeric/bordered_stencil.hh"
#include "numeric/dense_matrix.hh"
#include "numeric/fit.hh"
#include "numeric/impulse_cache.hh"
#include "numeric/iterative.hh"
#include "numeric/linear_operator.hh"
#include "numeric/lu.hh"
#include "numeric/ode.hh"
#include "numeric/robust_solve.hh"
#include "numeric/sparse.hh"
#include "numeric/sparse_cholesky.hh"
#include "obs/metrics.hh"

namespace irtherm
{
namespace
{

TEST(DenseMatrix, IdentityMultiply)
{
    const DenseMatrix id = DenseMatrix::identity(3);
    const std::vector<double> x = {1.0, -2.0, 3.0};
    const std::vector<double> y = id.multiply(x);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(DenseMatrix, TransposeAndProduct)
{
    DenseMatrix a(2, 3);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(0, 2) = 3;
    a(1, 0) = 4;
    a(1, 1) = 5;
    a(1, 2) = 6;
    const DenseMatrix at = a.transposed();
    EXPECT_EQ(at.rows(), 3u);
    EXPECT_DOUBLE_EQ(at(2, 1), 6.0);

    const DenseMatrix ata = at.multiply(a); // 3x3
    // (A^T A)(0,0) = 1 + 16 = 17
    EXPECT_DOUBLE_EQ(ata(0, 0), 17.0);
    // Symmetric by construction.
    EXPECT_DOUBLE_EQ(ata(0, 2), ata(2, 0));
}

TEST(Lu, SolvesKnownSystem)
{
    DenseMatrix a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    LuDecomposition lu(a);
    const std::vector<double> x =
        lu.solve(std::vector<double>{5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
    EXPECT_NEAR(lu.determinant(), 5.0, 1e-12);
}

TEST(Lu, PivotsZeroDiagonal)
{
    DenseMatrix a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    LuDecomposition lu(a);
    const std::vector<double> x =
        lu.solve(std::vector<double>{2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RejectsSingular)
{
    DenseMatrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    EXPECT_THROW(LuDecomposition lu(a), FatalError);
}

TEST(Lu, RandomRoundTrip)
{
    const std::size_t n = 25;
    DenseMatrix a(n, n);
    // Deterministic pseudo-random diagonally bumped matrix.
    unsigned state = 12345;
    auto next = [&]() {
        state = state * 1103515245u + 12345u;
        return static_cast<double>((state >> 16) & 0x7fff) / 32768.0;
    };
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = next() + (i == j ? 5.0 : 0.0);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i)
        x_true[i] = next() - 0.5;
    const std::vector<double> b = a.multiply(x_true);
    LuDecomposition lu(a);
    const std::vector<double> x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Sparse, BuilderMergesDuplicates)
{
    SparseBuilder sb(2, 2);
    sb.add(0, 0, 1.0);
    sb.add(0, 0, 2.0);
    sb.add(1, 1, 4.0);
    const CsrMatrix m = sb.build();
    EXPECT_EQ(m.nonZeros(), 2u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(Sparse, ConductanceStampIsSymmetric)
{
    SparseBuilder sb(3, 3);
    sb.stampConductance(0, 1, 2.0);
    sb.stampConductance(1, 2, 3.0);
    sb.stampGroundConductance(2, 1.0);
    const CsrMatrix m = sb.build();
    EXPECT_TRUE(m.isSymmetric(1e-14));
    EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
    EXPECT_DOUBLE_EQ(m.at(2, 2), 4.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(Sparse, MultiplyMatchesDense)
{
    SparseBuilder sb(3, 3);
    sb.stampConductance(0, 1, 1.0);
    sb.stampConductance(0, 2, 2.0);
    sb.stampGroundConductance(1, 0.5);
    const CsrMatrix m = sb.build();
    const std::vector<double> x = {1.0, 2.0, 3.0};
    const std::vector<double> y = m.multiply(x);
    // Row 0: 3*1 - 1*2 - 2*3 = -5
    EXPECT_DOUBLE_EQ(y[0], -5.0);
    // Row 1: -1*1 + 1.5*2 = 2
    EXPECT_DOUBLE_EQ(y[1], 2.0);
    // Row 2: -2*1 + 2*3 = 4
    EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(Sparse, NegativeConductanceRejected)
{
    SparseBuilder sb(2, 2);
    EXPECT_THROW(sb.stampConductance(0, 1, -1.0), FatalError);
    EXPECT_THROW(sb.stampGroundConductance(0, -0.1), FatalError);
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(Sparse, BuildSumsDuplicatesInStampOrder)
{
    // Seeded stamps, about 15 per row over 12 columns (so most rows
    // hold duplicates) with magnitudes spread over 16 decades, so the
    // summation order shows in the last bits; every third row stays
    // empty, and one long row is stamped four times over in reverse
    // column order (past the insertion-sort cutoff).
    const std::size_t rows = 60, cols = 70, longRow = 5;
    struct Stamp
    {
        std::size_t r, c;
        double v;
    };
    Rng rng(41);
    std::vector<Stamp> stamps;
    for (int k = 0; k < 900; ++k) {
        const std::size_t r = rng.index(rows);
        if (r % 3 == 2 || r == longRow)
            continue;
        const double v = rng.gaussian(0.0, 1.0) *
                         std::pow(10.0, rng.uniform(-8.0, 8.0));
        stamps.push_back({r, rng.index(12) * 5, v});
    }
    for (int pass = 0; pass < 4; ++pass) {
        for (std::size_t c = cols; c-- > 0;)
            stamps.push_back({longRow, c, rng.uniform(-1.0, 1.0)});
    }
    // A lone -0.0 stamp sums to +0.0 (the sum starts from +0.0).
    stamps.push_back({0, 3, -0.0});
    SparseBuilder sb(rows, cols);
    for (const Stamp &s : stamps)
        sb.add(s.r, s.c, s.v);
    const CsrMatrix m = sb.build();

    const auto &rp = m.rowPointers();
    const auto &ci = m.columnIndices();
    const auto &av = m.storedValues();
    ASSERT_EQ(rp.size(), rows + 1);
    EXPECT_EQ(rp[rows], m.nonZeros());
    EXPECT_EQ(ci.size(), m.nonZeros());
    EXPECT_EQ(av.capacity(), m.nonZeros());
    EXPECT_EQ(ci.capacity(), m.nonZeros());
    for (std::size_t r = 0; r < rows; ++r) {
        // Reference: the row's stamps in stamp order, stably sorted
        // by column, duplicates summed front to back from +0.0.
        std::vector<Stamp> row;
        for (const Stamp &s : stamps) {
            if (s.r == r)
                row.push_back(s);
        }
        std::stable_sort(row.begin(), row.end(),
                         [](const Stamp &a, const Stamp &b) {
                             return a.c < b.c;
                         });
        std::vector<std::size_t> wantCols;
        std::vector<double> wantVals;
        for (std::size_t i = 0; i < row.size();) {
            double acc = 0.0;
            const std::size_t c = row[i].c;
            for (; i < row.size() && row[i].c == c; ++i)
                acc += row[i].v;
            wantCols.push_back(c);
            wantVals.push_back(acc);
        }
        ASSERT_EQ(rp[r + 1] - rp[r], wantCols.size()) << "row " << r;
        for (std::size_t k = 0; k < wantCols.size(); ++k) {
            EXPECT_EQ(ci[rp[r] + k], wantCols[k]) << "row " << r;
            EXPECT_EQ(bits(av[rp[r] + k]), bits(wantVals[k]))
                << "row " << r << " col " << wantCols[k];
            if (k > 0) {
                EXPECT_LT(ci[rp[r] + k - 1], ci[rp[r] + k]);
            }
        }
    }
    EXPECT_EQ(rp[3] - rp[2], 0u);
    EXPECT_EQ(rp[longRow + 1] - rp[longRow], cols);
}

/** Build a 1-D resistive chain with ground at both ends. */
CsrMatrix
chainMatrix(std::size_t n, double g)
{
    SparseBuilder sb(n, n);
    for (std::size_t i = 0; i + 1 < n; ++i)
        sb.stampConductance(i, i + 1, g);
    sb.stampGroundConductance(0, g);
    sb.stampGroundConductance(n - 1, g);
    return sb.build();
}

// ---------------------------------------------------------------
// The stencil view of a grid stack and its bordered V-cycle
// ---------------------------------------------------------------

/** A grid-mode stack of one of the paper's packages. */
struct StackCase
{
    const char *name;
    bool athlon;
    bool oil;
    bool splitOil;
    bool secondary;
    std::size_t nx, ny;
    std::size_t borderNodes;
};

StackModel
buildStack(const StackCase &c)
{
    const Floorplan fp =
        c.athlon ? floorplans::athlon64() : floorplans::alphaEv6();
    PackageConfig pkg = c.oil ? PackageConfig::makeOilSilicon(10.0)
                              : PackageConfig::makeAirSink(0.3, 45.0);
    pkg.oilFlow.capacitanceAtInterface = !c.splitOil;
    pkg.secondary.enabled = c.secondary;
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = c.nx;
    mo.gridNy = c.ny;
    return StackModel(fp, pkg, mo);
}

std::vector<double>
stackPowers(const StackModel &m)
{
    std::vector<double> p(m.floorplan().blockCount());
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = 0.5 + 0.25 * static_cast<double>(b % 7);
    return p;
}

const StackCase kStackCases[] = {
    {"ev6 air", false, false, false, true, 16, 16, 16},
    {"ev6 oil", false, true, false, true, 16, 16, 4},
    {"ev6 oil split", false, true, true, true, 16, 16, 4},
    {"ev6 oil no secondary", false, true, false, false, 16, 16, 0},
    {"athlon air 10x12", true, false, false, true, 10, 12, 16},
    {"athlon oil 10x12", true, true, false, true, 10, 12, 4},
    {"athlon air 15x17", true, false, false, true, 15, 17, 16},
    {"athlon oil 15x17", true, true, true, true, 15, 17, 4},
};

/** The matrix put back together from a view's planes and border. */
CsrMatrix
reassemble(const BorderedStencil &view)
{
    const PlaneLayout &layout = view.layout();
    const std::size_t plane = layout.nx * layout.ny;
    auto node = [&](std::size_t cell) {
        return layout.planeOffsets[cell / plane] + cell % plane;
    };
    SparseBuilder sb(view.nodeCount(), view.nodeCount());
    // The stencil's CSR form stores every link, zero ones (the split
    // oil plane has no lateral links) included; those are no entries.
    const CsrMatrix cells = view.planes().toCsr();
    for (std::size_t r = 0; r < cells.rows(); ++r) {
        for (std::size_t k = cells.rowPointers()[r];
             k < cells.rowPointers()[r + 1]; ++k) {
            const std::size_t c = cells.columnIndices()[k];
            const double v = cells.storedValues()[k];
            if (c == r || v != 0.0)
                sb.add(node(r), node(c), v);
        }
    }
    const std::vector<std::size_t> &border = view.borderNodes();
    const std::size_t nb = border.size();
    for (std::size_t b = 0; b < nb; ++b) {
        for (std::size_t j = 0; j < nb; ++j) {
            if (view.borderBlock()[b * nb + j] != 0.0)
                sb.add(border[b], border[j], view.borderBlock()[b * nb + j]);
        }
        for (std::size_t k = view.couplingRows()[b];
             k < view.couplingRows()[b + 1]; ++k) {
            const std::size_t n = node(view.couplingCells()[k]);
            sb.add(border[b], n, view.couplingValues()[k]);
            sb.add(n, border[b], view.couplingValues()[k]);
        }
    }
    return sb.build();
}

TEST(BorderedStencil, PlanesAndBorderReassembleTheStackBitwise)
{
    for (const StackCase &c : kStackCases) {
        SCOPED_TRACE(c.name);
        const StackModel m = buildStack(c);
        ASSERT_NE(m.planeLayout(), nullptr);
        const BorderedStencil view(m.conductance(), *m.planeLayout());
        EXPECT_EQ(view.borderNodes().size(), c.borderNodes);
        EXPECT_EQ(view.planes().rows() + c.borderNodes, m.nodeCount());
        for (std::size_t b : view.borderNodes())
            EXPECT_EQ(m.nodeName(b).find(":c"), std::string::npos)
                << m.nodeName(b) << " is a cell";

        const CsrMatrix &g = m.conductance();
        const CsrMatrix back = reassemble(view);
        EXPECT_EQ(back.rowPointers(), g.rowPointers());
        EXPECT_EQ(back.columnIndices(), g.columnIndices());
        ASSERT_EQ(back.storedValues().size(), g.storedValues().size());
        for (std::size_t k = 0; k < g.storedValues().size(); ++k)
            ASSERT_EQ(bits(back.storedValues()[k]),
                      bits(g.storedValues()[k]))
                << "entry " << k;
    }
}

TEST(BorderedStencil, SplitOilNodesArePlaneAboveTheDie)
{
    const StackModel m = buildStack(kStackCases[2]);
    const PlaneLayout &layout = *m.planeLayout();
    ASSERT_GE(layout.planeOffsets.size(), 2u);
    EXPECT_EQ(m.nodeName(layout.planeOffsets[0]), "oil:c0_0");
    EXPECT_EQ(layout.planeOffsets[1], m.siliconNodeBegin());
}

TEST(BorderedStencil, RejectsLayoutsThatDoNotFitTheMatrix)
{
    const StackModel m = buildStack(kStackCases[1]);
    PlaneLayout layout = *m.planeLayout();
    // Two die-footprint layers swapped: their cells are then joined
    // to cells two planes away, which no stencil link holds.
    std::swap(layout.planeOffsets[0], layout.planeOffsets[1]);
    EXPECT_THROW(BorderedStencil(m.conductance(), layout), FatalError);
    layout = *m.planeLayout();
    layout.planeOffsets.push_back(layout.planeOffsets.back());
    EXPECT_THROW(BorderedStencil(m.conductance(), layout), FatalError);
    layout.planeOffsets.clear();
    EXPECT_THROW(BorderedStencil(m.conductance(), layout), FatalError);
}

/** <M^-1 x, y> - <x, M^-1 y>, relative to |M^-1 x| |y|. */
double
asymmetry(const Preconditioner &m, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> x(n), y(n), mx, my;
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.gaussian(0.0, 1.0);
        y[i] = rng.gaussian(0.0, 1.0);
    }
    m.apply(x, mx);
    m.apply(y, my);
    return std::abs(dot(mx, y) - dot(x, my)) / (norm2(mx) * norm2(y));
}

TEST(BorderedPreconditioner, IsSymmetric)
{
    for (const StackCase &c : kStackCases) {
        SCOPED_TRACE(c.name);
        const StackModel m = buildStack(c);
        const BorderedStencil view(m.conductance(), *m.planeLayout());
        // The border composition in double around a symmetric double
        // plane step (Jacobi) is symmetric to rounding...
        const BorderedPreconditioner exact(
            view,
            view.planes().makePreconditioner(PreconditionerKind::Jacobi));
        // ...and around the V-cycle, which runs in single precision,
        // to float rounding.
        const std::unique_ptr<Preconditioner> mg = makeBorderedMultigrid(
            m.conductance(), *m.planeLayout());
        EXPECT_EQ(mg->kind(), PreconditionerKind::Multigrid);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            EXPECT_LT(asymmetry(exact, m.nodeCount(), seed), 1e-12);
            EXPECT_LT(asymmetry(*mg, m.nodeCount(), seed), 1e-5);
        }
        // Positive: <M^-1 x, x> > 0.
        Rng rng(9);
        std::vector<double> x(m.nodeCount()), mx;
        for (double &v : x)
            v = rng.gaussian(0.0, 1.0);
        mg->apply(x, mx);
        EXPECT_GT(dot(mx, x), 0.0);
    }
}

TEST(BorderedPreconditioner, AppliesInPlace)
{
    const StackModel m = buildStack(kStackCases[0]);
    const std::unique_ptr<Preconditioner> mg =
        makeBorderedMultigrid(m.conductance(), *m.planeLayout());
    std::vector<double> r(m.nodeCount());
    for (std::size_t i = 0; i < r.size(); ++i)
        r[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
    std::vector<double> z;
    mg->apply(r, z);
    mg->apply(r, r);
    EXPECT_EQ(r, z);
}

/** Node temperatures (K) from one sparse Cholesky solve of G T = P. */
std::vector<double>
factoredSteady(const StackModel &m, const std::vector<double> &blockPowers)
{
    SparseCholesky chol(m.conductance());
    std::vector<double> x;
    if (!chol.factor(m.conductance())) {
        ADD_FAILURE() << chol.failure();
        return x;
    }
    chol.solve(m.nodePowerVector(blockPowers), x);
    for (double &t : x)
        t += m.packageConfig().ambient;
    return x;
}

TEST(StackMultigrid, MatchesSsorCgAtTierZeroInFewIterations)
{
    // The reference is a direct solve: the multigrid answer must
    // match it at tier 0 in a grid-independent iteration count.
    for (std::size_t grid : {16, 32, 64}) {
        for (const StackCase &base :
             {kStackCases[0], kStackCases[1], kStackCases[2],
              kStackCases[3]}) {
            StackCase c = base;
            c.nx = c.ny = grid;
            SCOPED_TRACE(std::string(c.name) + " grid " +
                         std::to_string(grid));
            const StackModel m = buildStack(c);
            const std::vector<double> p = stackPowers(m);
            StackModel::SteadySolveInfo mg;
            const std::vector<double> viaMg =
                m.steadyNodeTemperatures(p, {}, &mg);
            EXPECT_EQ(mg.method, "mg-cg");
            EXPECT_EQ(mg.fallbackTier, 0);
            EXPECT_LE(mg.iterations, 25u);
            const std::vector<double> want = factoredSteady(m, p);
            ASSERT_EQ(viaMg.size(), want.size());
            for (std::size_t i = 0; i < viaMg.size(); ++i)
                ASSERT_NEAR(viaMg[i], want[i], 1e-9) << "node " << i;
        }
    }
}

TEST(StackMultigrid, FailFastSolveRunsTheSameCycle)
{
    const StackModel m = buildStack(kStackCases[0]);
    const std::vector<double> p = stackPowers(m);
    StackModel::SteadySolveOptions so;
    StackModel::SteadySolveInfo chain, direct;
    const std::vector<double> viaChain =
        m.steadyNodeTemperatures(p, so, &chain);
    so.fallback = false;
    const std::vector<double> viaDirect =
        m.steadyNodeTemperatures(p, so, &direct);
    EXPECT_EQ(viaDirect, viaChain);
    EXPECT_EQ(direct.iterations, chain.iterations);
}

TEST(StackMultigrid, BitIdenticalSerialAndAtFourThreads)
{
    const bool saved = ThreadPool::parallelEnabled();
    // Before the pool's first use, so the pooled kernels really run
    // on four threads (each discovered test is its own process).
    ThreadPool::setGlobalThreads(4);
    for (const StackCase &base : {kStackCases[0], kStackCases[2]}) {
        StackCase c = base;
        c.nx = c.ny = 32;
        SCOPED_TRACE(c.name);
        const StackModel m = buildStack(c);
        const std::vector<double> p = stackPowers(m);
        ThreadPool::setParallelEnabled(false);
        const std::vector<double> serial = m.steadyNodeTemperatures(p);
        ThreadPool::setParallelEnabled(true);
        const std::vector<double> pooled = m.steadyNodeTemperatures(p);
        ASSERT_EQ(serial.size(), pooled.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(bits(serial[i]), bits(pooled[i])) << "node " << i;
    }
    ThreadPool::setParallelEnabled(saved);
}

/** Arms fault rules for one scope; the injector is inert outside. */
class FaultGuard
{
  public:
    explicit FaultGuard(const std::string &spec)
    {
        FaultInjector::global().arm(spec);
    }
    ~FaultGuard() { FaultInjector::global().disarm(); }
    FaultGuard(const FaultGuard &) = delete;
    FaultGuard &operator=(const FaultGuard &) = delete;
};

TEST(StackMultigrid, DivergedCycleDemotesTheSolveToSsorCg)
{
    // The chain's second tier is jacobi-cg: the demoted answer is
    // the one a Jacobi-CG request gives.
    const StackModel m = buildStack(kStackCases[0]);
    const std::vector<double> p = stackPowers(m);
    StackModel::SteadySolveOptions so;
    so.preconditioner = PreconditionerKind::Jacobi;
    const std::vector<double> want = m.steadyNodeTemperatures(p, so);

    const FaultGuard faults("mg.diverge:count=1");
    so.preconditioner = PreconditionerKind::Multigrid;
    StackModel::SteadySolveInfo info;
    const std::vector<double> got = m.steadyNodeTemperatures(p, so, &info);
    EXPECT_EQ(info.method, "jacobi-cg");
    EXPECT_EQ(info.fallbackTier, 1);
    EXPECT_EQ(FaultInjector::global().fired(), 1u);
    EXPECT_EQ(got, want);
}

TEST(StackMultigrid, DivergedCyclesDemoteTheImpulseBuildToSsorCg)
{
    const StackModel m = buildStack(kStackCases[1]);
    const std::size_t blocks = m.floorplan().blockCount();
    const std::vector<double> p = stackPowers(m);
    StackModel::SteadySolveOptions so;
    const std::vector<double> want = m.steadyNodeTemperatures(p, so);

    auto &reg = obs::MetricsRegistry::global();
    const std::uint64_t setups = reg.counter("numeric.mg.setups").value();
    const std::uint64_t demoted =
        reg.counter("resilience.fallback.jacobi_cg").value();
    constexpr std::uint64_t kKey = 0x6d67646976657267ull;
    ImpulseResponseCache::global().invalidate(kKey);
    so.superposition = true;
    so.stackKey = kKey;
    StackModel::SteadySolveInfo info;
    std::vector<double> got;
    {
        // Every direct column is poisoned, so each one falls back to
        // MG-CG, and every column's V-cycle diverges: each column
        // demotes to Jacobi-CG.
        const FaultGuard faults("chol.corrupt:count=1000,"
                                "mg.diverge:count=1000");
        got = m.steadyNodeTemperatures(p, so, &info);
        EXPECT_EQ(FaultInjector::global().fired(), 2 * blocks);
    }
    ImpulseResponseCache::global().invalidate(kKey);
    EXPECT_EQ(info.method, "superposition");
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-9) << "node " << i;
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    // One hierarchy for all the columns, and every column demoted.
    EXPECT_EQ(reg.counter("numeric.mg.setups").value() - setups, 1u);
    EXPECT_EQ(reg.counter("resilience.fallback.jacobi_cg").value() - demoted,
              blocks);
}

TEST(StackMultigrid, UnfaultedGrid32OilImpulseBuildNeverIterates)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 32;
    mo.gridNy = 32;
    const StackModel m(floorplans::alphaEv6(),
                       PackageConfig::makeOilSilicon(10.0), mo);
    auto &reg = obs::MetricsRegistry::global();
    const std::uint64_t setups = reg.counter("numeric.mg.setups").value();
    const std::uint64_t iters = reg.counter("numeric.cg.iterations").value();
    const std::uint64_t factors = reg.counter("numeric.chol.factors").value();
    constexpr std::uint64_t kKey = 0x6469726563743332ull;
    ImpulseResponseCache::global().invalidate(kKey);
    StackModel::SteadySolveOptions so;
    so.superposition = true;
    so.stackKey = kKey;
    StackModel::SteadySolveInfo info;
    m.steadyNodeTemperatures(stackPowers(m), so, &info);
    ImpulseResponseCache::global().invalidate(kKey);
    EXPECT_EQ(info.method, "superposition");
    EXPECT_EQ(reg.counter("numeric.chol.factors").value() - factors, 1u);
    EXPECT_EQ(reg.counter("numeric.mg.setups").value() - setups, 0u);
    EXPECT_EQ(reg.counter("numeric.cg.iterations").value() - iters, 0u);
}

/** The symmetry check as it was: a binary search for every partner. */
bool
isSymmetricByLookup(const CsrMatrix &a, double tol)
{
    if (a.rows() != a.cols())
        return false;
    double maxAbs = 0.0;
    for (double v : a.storedValues())
        maxAbs = std::max(maxAbs, std::abs(v));
    const double bound = tol * std::max(maxAbs, 1e-300);
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            if (std::abs(av[k] - a.at(ci[k], r)) > bound)
                return false;
    return true;
}

TEST(SparseMatrix, SymmetryVerdictsMatchThePartnerLookup)
{
    // Seeded near-symmetric matrices: mirrored pairs, some nudged by
    // 2^-10 or 2^-9, which the tolerances below put on both sides of
    // the bound, and some one-sided entries.
    std::size_t symmetric = 0, asymmetric = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SplitMix64 rng(seed);
        const std::size_t n = 2 + rng.index(30);
        SparseBuilder b(n, n);
        for (std::size_t i = 0; i < n; ++i)
            b.add(i, i, 1.0);
        const std::size_t links = rng.index(3 * n);
        for (std::size_t k = 0; k < links; ++k) {
            const std::size_t i = rng.index(n);
            const std::size_t j = rng.index(n);
            if (i == j)
                continue;
            const double v = 0.25 + 0.25 * static_cast<double>(rng.index(2));
            const std::size_t kind = rng.index(12);
            b.add(i, j, v);
            if (kind == 0)
                continue; // one-sided
            const double nudge =
                kind == 1 ? 0x1p-10 : kind == 2 ? 0x1p-9 : 0.0;
            b.add(j, i, v + nudge);
        }
        const CsrMatrix a = b.build();
        for (const double tol : {0x1p-10, 0x1p-11, 0.0, 1.0}) {
            const bool want = isSymmetricByLookup(a, tol);
            ASSERT_EQ(a.isSymmetric(tol), want)
                << "seed " << seed << " tol " << tol;
            ++(want ? symmetric : asymmetric);
        }
    }
    // The seeds reach both verdicts.
    EXPECT_GT(symmetric, 100u);
    EXPECT_GT(asymmetric, 100u);

    // Exactly at the bound passes; just past it fails.
    SparseBuilder edge(2, 2);
    edge.add(0, 0, 1.0);
    edge.add(1, 1, 1.0);
    edge.add(0, 1, 0.5);
    edge.add(1, 0, 0.25);
    const CsrMatrix e = edge.build();
    EXPECT_TRUE(e.isSymmetric(0.25));
    EXPECT_TRUE(isSymmetricByLookup(e, 0.25));
    EXPECT_FALSE(e.isSymmetric(0.125));
    EXPECT_FALSE(isSymmetricByLookup(e, 0.125));

    SparseBuilder wide(2, 3);
    wide.add(0, 0, 1.0);
    wide.add(1, 1, 1.0);
    EXPECT_FALSE(wide.build().isSymmetric(1.0));
}

TEST(StackMultigrid, BlockModeAndMicrochannelKeepTheirMethods)
{
    const Floorplan fp = floorplans::alphaEv6();
    const std::vector<double> p(fp.blockCount(), 1.0);
    const StackModel block(fp, PackageConfig::makeAirSink(0.3, 45.0));
    EXPECT_EQ(block.planeLayout(), nullptr);
    StackModel::SteadySolveInfo info;
    block.steadyNodeTemperatures(p, {}, &info);
    EXPECT_EQ(info.method, "jacobi-cg");

    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 16;
    mo.gridNy = 16;
    const StackModel micro(fp, PackageConfig::makeMicrochannel(1.0), mo);
    EXPECT_EQ(micro.planeLayout(), nullptr);
    micro.steadyNodeTemperatures(p, {}, &info);
    EXPECT_EQ(info.method, "jacobi-bicgstab");
}

TEST(StackMultigrid, BlockModeSolvesAreJacobiCgWithinDenseLu)
{
    for (const bool athlon : {false, true}) {
        const Floorplan fp =
            athlon ? floorplans::athlon64() : floorplans::alphaEv6();
        std::vector<double> p(fp.blockCount());
        for (std::size_t b = 0; b < p.size(); ++b)
            p[b] = 0.5 + 0.25 * static_cast<double>(b % 7);
        for (const bool oil : {false, true}) {
            SCOPED_TRACE(std::string(athlon ? "athlon" : "ev6") +
                         (oil ? " oil" : " air"));
            const PackageConfig pkg =
                oil ? PackageConfig::makeOilSilicon(10.0)
                    : PackageConfig::makeAirSink(0.3, 45.0);
            const StackModel m(fp, pkg);
            ASSERT_EQ(m.planeLayout(), nullptr);
            StackModel::SteadySolveInfo info;
            const std::vector<double> got =
                m.steadyNodeTemperatures(p, {}, &info);
            EXPECT_EQ(info.method, "jacobi-cg");
            EXPECT_EQ(info.fallbackTier, 0);

            const CsrMatrix &g = m.conductance();
            DenseMatrix dense(g.rows(), g.cols());
            for (std::size_t r = 0; r < g.rows(); ++r)
                for (std::size_t k = g.rowPointers()[r];
                     k < g.rowPointers()[r + 1]; ++k)
                    dense(r, g.columnIndices()[k]) = g.storedValues()[k];
            const std::vector<double> rise =
                LuDecomposition(dense).solve(m.nodePowerVector(p));
            ASSERT_EQ(got.size(), rise.size());
            for (std::size_t i = 0; i < rise.size(); ++i)
                EXPECT_NEAR(got[i], rise[i] + m.packageConfig().ambient,
                            1e-9)
                    << "node " << i;
        }
    }
}

TEST(StackMultigrid, MicrochannelGrid24IsJacobiBicgstabAtTierZero)
{
    const Floorplan fp = floorplans::alphaEv6();
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 24;
    mo.gridNy = 24;
    const StackModel micro(fp, PackageConfig::makeMicrochannel(1.0), mo);
    StackModel::SteadySolveInfo info;
    micro.steadyNodeTemperatures(std::vector<double>(fp.blockCount(), 1.0),
                                 {}, &info);
    EXPECT_EQ(info.method, "jacobi-bicgstab");
    EXPECT_EQ(info.fallbackTier, 0);
}

TEST(Iterative, CgMatchesLuOnChain)
{
    const std::size_t n = 40;
    const CsrMatrix a = chainMatrix(n, 2.0);
    std::vector<double> b(n, 0.0);
    b[n / 2] = 10.0;

    const IterativeResult cg = conjugateGradient(a, b);
    ASSERT_TRUE(cg.converged);

    DenseMatrix ad(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            ad(i, j) = a.at(i, j);
    LuDecomposition lu(ad);
    const std::vector<double> x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(cg.x[i], x[i], 1e-8);
}

TEST(Iterative, CgWarmStartConvergesInstantly)
{
    const CsrMatrix a = chainMatrix(10, 1.0);
    std::vector<double> b(10, 1.0);
    const IterativeResult first = conjugateGradient(a, b);
    const IterativeResult again = conjugateGradient(a, b, first.x);
    EXPECT_TRUE(again.converged);
    EXPECT_LE(again.iterations, 1u);
}

TEST(Ode, AddDiagonalCreatesMissingEntries)
{
    SparseBuilder sb(2, 2);
    sb.stampConductance(0, 1, 1.0); // both diagonals exist
    CsrMatrix base = sb.build();
    const CsrMatrix out = addDiagonal(base, {0.5, 1.5});
    EXPECT_DOUBLE_EQ(out.at(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(out.at(1, 1), 2.5);
    EXPECT_DOUBLE_EQ(out.at(0, 1), -1.0);
}

/**
 * Single-node RC to ground: C dT/dt = P - g T.
 * Analytic: T(t) = (P/g)(1 - exp(-g t / C)).
 */
struct SingleRc
{
    CsrMatrix g;
    std::vector<double> cap;
    double conductance;
    double capacitance;

    SingleRc(double g_, double c_) : conductance(g_), capacitance(c_)
    {
        SparseBuilder sb(1, 1);
        sb.stampGroundConductance(0, g_);
        g = sb.build();
        cap = {c_};
    }

    double
    analytic(double p, double t) const
    {
        return p / conductance *
               (1.0 - std::exp(-conductance * t / capacitance));
    }
};

TEST(Ode, Rk4MatchesAnalyticRc)
{
    SingleRc rc(2.0, 0.5); // tau = 0.25 s
    Rk4Options opts;
    opts.absTolerance = 1e-6;
    Rk4Integrator rk4(rc.g, rc.cap, opts);
    std::vector<double> t = {0.0};
    const std::vector<double> p = {4.0};
    rk4.advance(t, p, 0.3);
    EXPECT_NEAR(t[0], rc.analytic(4.0, 0.3), 1e-5);
    rk4.advance(t, p, 0.7);
    EXPECT_NEAR(t[0], rc.analytic(4.0, 1.0), 1e-5);
}

TEST(Ode, BackwardEulerConvergesToSteady)
{
    SingleRc rc(2.0, 0.5);
    BackwardEulerIntegrator be(rc.g, rc.cap, 0.01);
    std::vector<double> t = {0.0};
    const std::vector<double> p = {4.0};
    be.advance(t, p, 5.0); // 20 tau
    EXPECT_NEAR(t[0], 2.0, 1e-6);
}

TEST(Ode, BackwardEulerFirstOrderAccuracy)
{
    SingleRc rc(1.0, 1.0);
    const std::vector<double> p = {1.0};

    auto err_at = [&](double dt) {
        BackwardEulerIntegrator be(rc.g, rc.cap, dt);
        std::vector<double> t = {0.0};
        be.advance(t, p, 1.0);
        return std::abs(t[0] - rc.analytic(1.0, 1.0));
    };
    const double e1 = err_at(0.1);
    const double e2 = err_at(0.05);
    // First order: halving dt roughly halves the error.
    EXPECT_NEAR(e1 / e2, 2.0, 0.4);
}

TEST(Ode, CrankNicolsonSecondOrderAccuracy)
{
    SingleRc rc(1.0, 1.0);
    const std::vector<double> p = {1.0};

    auto err_at = [&](double dt) {
        CrankNicolsonIntegrator cn(rc.g, rc.cap, dt);
        std::vector<double> t = {0.0};
        const auto steps = static_cast<std::size_t>(1.0 / dt);
        for (std::size_t i = 0; i < steps; ++i)
            cn.step(t, p);
        return std::abs(t[0] - rc.analytic(1.0, 1.0));
    };
    const double e1 = err_at(0.1);
    const double e2 = err_at(0.05);
    // Second order: halving dt quarters the error.
    EXPECT_NEAR(e1 / e2, 4.0, 1.0);
}

TEST(Ode, IntegratorsAgreeOnTwoNodeNetwork)
{
    SparseBuilder sb(2, 2);
    sb.stampConductance(0, 1, 1.0);
    sb.stampGroundConductance(1, 0.5);
    const CsrMatrix g = sb.build();
    const std::vector<double> cap = {0.2, 1.0};
    const std::vector<double> p = {1.0, 0.0};

    Rk4Options ro;
    ro.absTolerance = 1e-7;
    Rk4Integrator rk4(g, cap, ro);
    std::vector<double> t_rk = {0.0, 0.0};
    rk4.advance(t_rk, p, 0.5);

    BackwardEulerIntegrator be(g, cap, 1e-4);
    std::vector<double> t_be = {0.0, 0.0};
    be.advance(t_be, p, 0.5);

    EXPECT_NEAR(t_rk[0], t_be[0], 2e-3);
    EXPECT_NEAR(t_rk[1], t_be[1], 2e-3);
}

TEST(Ode, Rk4RefusesATemporaryConductanceMatrix)
{
    // G is kept by reference, so a temporary would dangle.
    static_assert(!std::is_constructible_v<Rk4Integrator, CsrMatrix &&,
                                           std::vector<double>>);
    static_assert(std::is_constructible_v<Rk4Integrator, const CsrMatrix &,
                                          std::vector<double>>);
}

TEST(Ode, CrankNicolsonRefusesATemporaryConductanceMatrix)
{
    // G is kept by reference for the explicit half of every rhs.
    static_assert(
        !std::is_constructible_v<CrankNicolsonIntegrator, CsrMatrix &&,
                                 std::vector<double>, double>);
    static_assert(
        std::is_constructible_v<CrankNicolsonIntegrator, const CsrMatrix &,
                                std::vector<double>, double>);
}

TEST(Ode, BackwardEulerRejectsNonMultipleDuration)
{
    SingleRc rc(1.0, 1.0);
    BackwardEulerIntegrator be(rc.g, rc.cap, 0.01);
    std::vector<double> t = {0.0};
    EXPECT_THROW(be.advance(t, {1.0}, 0.0153), FatalError);
}

TEST(Fit, RecoversExponentialTau)
{
    const double tau = 0.42;
    const double steady = 10.0;
    std::vector<double> times, values;
    for (int i = 0; i <= 100; ++i) {
        const double t = 0.02 * i;
        times.push_back(t);
        values.push_back(steady * (1.0 - std::exp(-t / tau)));
    }
    const ExponentialFit fit = fitExponential(times, values, steady);
    EXPECT_NEAR(fit.tau, tau, 1e-6);
    EXPECT_LT(fit.rmsError, 1e-9);
}

TEST(Fit, TimeToFractionLinearInterpolation)
{
    const std::vector<double> times = {0.0, 1.0, 2.0};
    const std::vector<double> values = {0.0, 4.0, 8.0};
    // Target 0.5 * 8 = 4 at t = 1 exactly.
    EXPECT_NEAR(timeToFraction(times, values, 8.0, 0.5), 1.0, 1e-12);
    // Target 0.25 * 8 = 2 interpolates to t = 0.5.
    EXPECT_NEAR(timeToFraction(times, values, 8.0, 0.25), 0.5, 1e-12);
}

TEST(Fit, TimeToFractionFallingResponse)
{
    const std::vector<double> times = {0.0, 1.0, 2.0};
    const std::vector<double> values = {10.0, 6.0, 2.0};
    // Steady 2, 63.2% of the drop: 10 - 0.632*8 = 4.944 -> t in (1,2).
    const double t = timeToFraction(times, values, 2.0, 0.632);
    EXPECT_GT(t, 1.0);
    EXPECT_LT(t, 2.0);
}

TEST(Fit, LinearityMetric)
{
    std::vector<double> x, y_lin, y_exp;
    for (int i = 0; i <= 50; ++i) {
        const double t = 0.02 * i;
        x.push_back(t);
        y_lin.push_back(3.0 * t + 1.0);
        y_exp.push_back(1.0 - std::exp(-8.0 * t));
    }
    EXPECT_NEAR(linearity(x, y_lin), 1.0, 1e-12);
    EXPECT_LT(linearity(x, y_exp), 0.95);
}

TEST(Fit, LineFitRecoversCoefficients)
{
    const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
    const std::vector<double> y = {1.0, 3.0, 5.0, 7.0};
    const auto [a, b] = fitLine(x, y);
    EXPECT_NEAR(a, 1.0, 1e-12);
    EXPECT_NEAR(b, 2.0, 1e-12);
}

} // namespace
} // namespace irtherm
