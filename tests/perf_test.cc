/**
 * @file
 * Tests for the numeric core's fast paths: the reductions' fixed
 * summation order, the matrix-free grid stencil's equivalence to the
 * assembled-CSR formulation, MG-CG against a direct solve, and the
 * impulse cache's concurrent build latch.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "numeric/grid_stencil.hh"
#include "numeric/impulse_cache.hh"
#include "numeric/iterative.hh"
#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"
#include "numeric/sparse_cholesky.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{
namespace
{

/**
 * The reductions' summation order is part of every solver answer's
 * bits: dot() and norm2() sum 1024-element chunks into partials and
 * add the partials in ascending chunk order. A single running sum
 * over 20 000 terms rounds differently.
 */
TEST(Reduction, DotAndNorm2AddChunkPartialsInAscendingOrder)
{
    Rng rng(7);
    const std::size_t n = 20000;
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.gaussian(0.0, 3.0);
        b[i] = rng.gaussian(0.0, 3.0);
    }
    auto chunked = [n](const std::vector<double> &x,
                       const std::vector<double> &y) {
        double total = 0.0;
        for (std::size_t lo = 0; lo < n; lo += 1024) {
            double partial = 0.0;
            for (std::size_t i = lo; i < std::min(n, lo + 1024); ++i)
                partial += x[i] * y[i];
            total += partial;
        }
        return total;
    };
    EXPECT_EQ(dot(a, b), chunked(a, b));
    EXPECT_EQ(norm2(a), std::sqrt(chunked(a, a)));
}

/** Random stencil with all link classes present plus ground paths. */
GridStencilOperator
randomStencil(std::size_t nx, std::size_t ny, std::size_t nz,
              Rng &rng)
{
    GridStencilOperator op(nx, ny, nz);
    for (std::size_t iz = 0; iz < nz; ++iz) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
                if (ix + 1 < nx)
                    op.stampLinkX(ix, iy, iz, rng.uniform(0.1, 2.0));
                if (iy + 1 < ny)
                    op.stampLinkY(ix, iy, iz, rng.uniform(0.1, 2.0));
                if (iz + 1 < nz)
                    op.stampLinkZ(ix, iy, iz, rng.uniform(0.1, 2.0));
                op.stampGround(ix, iy, iz, rng.uniform(0.01, 0.5));
            }
        }
    }
    return op;
}

TEST(GridStencil, MatvecMatchesAssembledCsr)
{
    Rng rng(11);
    const GridStencilOperator op = randomStencil(7, 5, 4, rng);
    const CsrMatrix csr = op.toCsr();
    ASSERT_TRUE(csr.isSymmetric(1e-12));

    for (int trial = 0; trial < 5; ++trial) {
        std::vector<double> x(op.rows());
        for (double &v : x)
            v = rng.gaussian(0.0, 1.0);

        const std::vector<double> want = csr.multiply(x);
        std::vector<double> got;
        op.apply(x, got);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_NEAR(got[i], want[i],
                        1e-12 * std::max(1.0, std::abs(want[i])));

        // Accumulate form with a non-unit alpha.
        std::vector<double> acc(op.rows(), 0.5);
        std::vector<double> accWant = acc;
        op.applyAccumulate(x, acc, -2.0);
        csr.multiplyAccumulate(x, accWant, -2.0);
        for (std::size_t i = 0; i < accWant.size(); ++i)
            EXPECT_NEAR(acc[i], accWant[i],
                        1e-12 * std::max(1.0, std::abs(accWant[i])));
    }
}

TEST(GridStencil, UncoupledLayerViaZeroLateralLinks)
{
    // Two columns with no lateral coupling in the top layer (the
    // FdSolver oil-film pattern): stamping only z links must leave
    // top-layer cells independent of their lateral neighbours.
    GridStencilOperator op(2, 1, 2);
    op.stampLinkZ(0, 0, 0, 1.0);
    op.stampLinkZ(1, 0, 0, 2.0);
    op.stampGround(0, 0, 1, 3.0);
    op.stampGround(1, 0, 1, 4.0);

    const CsrMatrix csr = op.toCsr();
    // No entry couples the two top-layer cells (indices 2 and 3).
    EXPECT_EQ(csr.at(2, 3), 0.0);
    EXPECT_EQ(csr.at(3, 2), 0.0);
    EXPECT_DOUBLE_EQ(csr.at(2, 2), 1.0 + 3.0);
    EXPECT_DOUBLE_EQ(csr.at(3, 3), 2.0 + 4.0);
}

TEST(GridStencil, CgSolvesSameSystemAsCsr)
{
    Rng rng(19);
    const GridStencilOperator op = randomStencil(8, 8, 3, rng);
    const CsrMatrix csr = op.toCsr();
    std::vector<double> b(op.rows());
    for (double &v : b)
        v = rng.uniform(0.0, 2.0);

    IterativeOptions opts;
    opts.tolerance = 1e-12;
    const IterativeResult viaStencil = conjugateGradient(op, b, {}, opts);
    const IterativeResult viaCsr = conjugateGradient(csr, b, {}, opts);
    ASSERT_TRUE(viaStencil.converged);
    ASSERT_TRUE(viaCsr.converged);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_NEAR(viaStencil.x[i], viaCsr.x[i], 1e-8);
}

TEST(Multigrid, CgMatchesCholeskyOnLaneTailGrids)
{
    // The small stencils are the vector-tail set: widths 3..11 leave
    // every remainder of the cycle's four-float lanes (and odd
    // coarse widths below them) on one and several planes.
    Rng rng(47);
    std::vector<std::array<std::size_t, 3>> dims{{32, 32, 6}};
    for (std::size_t nx = 3; nx <= 11; ++nx) {
        for (std::size_t ny : {2u, 7u}) {
            for (std::size_t nz : {1u, 4u})
                dims.push_back({nx, ny, nz});
        }
    }

    IterativeOptions opts;
    opts.tolerance = 1e-11;
    opts.preconditioner = PreconditionerKind::Multigrid;

    for (const auto &[nx, ny, nz] : dims) {
        SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny) +
                     "x" + std::to_string(nz));
        const GridStencilOperator op = randomStencil(nx, ny, nz, rng);
        std::vector<double> b(op.rows());
        for (double &v : b)
            v = rng.uniform(0.0, 2.0);

        const IterativeResult ser = conjugateGradient(op, b, {}, opts);
        ASSERT_TRUE(ser.converged);

        const CsrMatrix a = op.toCsr();
        SparseCholesky chol(a);
        ASSERT_TRUE(chol.factor(a)) << chol.failure();
        std::vector<double> exact;
        chol.solve(b, exact);
        double diff2 = 0.0, ref2 = 0.0;
        for (std::size_t i = 0; i < b.size(); ++i) {
            diff2 += (ser.x[i] - exact[i]) * (ser.x[i] - exact[i]);
            ref2 += exact[i] * exact[i];
        }
        EXPECT_LE(std::sqrt(diff2), 1e-9 * std::sqrt(ref2));
    }
}

TEST(ImpulseCache, ConcurrentAcquireBuildsOnce)
{
    // Many threads racing on one key must serialize on the per-key
    // build latch: exactly one builder runs, everyone gets the same
    // matrix, and only non-builders report a hit. Run under TSan in
    // CI (ctest -L perf) this also vets the mutex/cv protocol.
    ImpulseResponseCache cache(std::size_t(64) << 20);
    std::atomic<int> builds{0};
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const ImpulseResponseMatrix>> got(
        kThreads);
    // char, not bool: vector<bool> packs bits, so per-thread writes
    // to adjacent elements would race on the shared word.
    std::vector<char> hit(kThreads, 0);

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            bool wasHit = false;
            got[t] = cache.acquire(
                0xc0ffee,
                [&]() -> std::shared_ptr<ImpulseResponseMatrix> {
                    builds.fetch_add(1);
                    auto m = std::make_shared<ImpulseResponseMatrix>();
                    m->nodes = 16;
                    m->blocks = 3;
                    m->values.assign(m->nodes * m->blocks, 1.5);
                    return m;
                },
                &wasHit);
            hit[t] = wasHit;
        });
    }
    for (std::thread &w : workers)
        w.join();

    EXPECT_EQ(builds.load(), 1);
    int hits = 0;
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr) << "thread " << t;
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
        if (hit[t])
            ++hits;
    }
    EXPECT_EQ(hits, kThreads - 1);
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ImpulseCache, WaitOnAnotherBuildIsCountedAndNamed)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    // One thread builds a key until released while a second asks for
    // it: the second one's wait counts once, however often the latch
    // wakes it, and is recorded as a sweep.build_wait span.
    obs::Counter &waits = obs::MetricsRegistry::global().counter(
        "sweep.impulse_cache.waits");
    const auto before = waits.value();
    obs::SpanRecorder &recorder = obs::SpanRecorder::global();
    recorder.clear();
    recorder.setEnabled(true);

    ImpulseResponseCache cache(std::size_t(64) << 20);
    const auto matrix = [] {
        auto m = std::make_shared<ImpulseResponseMatrix>();
        m->nodes = 16;
        m->blocks = 3;
        m->values.assign(m->nodes * m->blocks, 1.5);
        return m;
    };
    std::promise<void> release;
    const std::shared_future<void> released =
        release.get_future().share();
    std::atomic<bool> building{false};
    std::thread builder([&] {
        cache.acquire(7, [&] {
            building = true;
            released.wait();
            return matrix();
        });
    });
    while (!building)
        std::this_thread::yield();
    bool wasHit = false;
    std::thread waiter([&] { cache.acquire(7, matrix, &wasHit); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (waits.value() == before &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    // Another key's build wakes the waiter without ending its wait.
    cache.acquire(8, matrix);
    release.set_value();
    builder.join();
    waiter.join();
    recorder.setEnabled(false);

    EXPECT_TRUE(wasHit);
    EXPECT_EQ(waits.value() - before, 1u);
    std::size_t spans = 0;
    for (const obs::SpanRecord &r : recorder.snapshot()) {
        if (r.name != "sweep.build_wait")
            continue;
        ++spans;
        ASSERT_EQ(r.attrs.size(), 1u);
        EXPECT_EQ(r.attrs[0].key, "on");
        EXPECT_EQ(r.attrs[0].text, "impulse");
    }
    EXPECT_EQ(spans, 1u);
    recorder.clear();
}

TEST(Solvers, BiCgStabReportsActualIterations)
{
    // A converged solve must not report the full budget (the old code
    // returned maxIterations from every non-early-return exit).
    SparseBuilder sb(3, 3);
    sb.add(0, 0, 4.0);
    sb.add(1, 1, 5.0);
    sb.add(2, 2, 6.0);
    sb.add(0, 1, 1.0); // one-sided: non-symmetric
    const CsrMatrix a = sb.build();

    IterativeOptions opts;
    opts.maxIterations = 500;
    const IterativeResult res = biCgStab(a, {4.0, 5.0, 6.0}, {}, opts);
    ASSERT_TRUE(res.converged);
    EXPECT_LT(res.iterations, opts.maxIterations);

    // Exhausted-budget runs still report the budget.
    IterativeOptions tiny;
    tiny.maxIterations = 1;
    tiny.tolerance = 1e-30;
    const IterativeResult hard = biCgStab(a, {4.0, 5.0, 6.0}, {}, tiny);
    EXPECT_EQ(hard.iterations, 1u);
}

} // namespace
} // namespace irtherm
