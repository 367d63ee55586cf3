/**
 * @file
 * Tests for the parallel numeric core: the thread pool's dispatch,
 * determinism, and error handling, and the matrix-free grid stencil's
 * equivalence to the assembled-CSR formulation.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "numeric/grid_stencil.hh"
#include "numeric/impulse_cache.hh"
#include "numeric/iterative.hh"
#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"

namespace irtherm
{
namespace
{

/** Restores the process-wide parallel switch on scope exit. */
struct ParallelGuard
{
    bool saved = ThreadPool::parallelEnabled();
    ~ParallelGuard() { ThreadPool::setParallelEnabled(saved); }
};

TEST(ThreadPool, StartupShutdown)
{
    for (int round = 0; round < 3; ++round) {
        ThreadPool pool(4);
        EXPECT_EQ(pool.threadCount(), 4u);
    }
    ThreadPool single(1);
    EXPECT_EQ(single.threadCount(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 10007; // prime: exercises a ragged tail
    for (std::size_t grain : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000},
                              std::size_t{20000}}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(0, n, grain,
                         [&](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i)
                                 hits[i].fetch_add(1);
                         });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i
                                         << " grain " << grain;
    }
}

TEST(ThreadPool, ReduceSumMatchesSerialBitExactly)
{
    ThreadPool pool(4);
    Rng rng(42);
    const std::size_t n = 50000;
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(-1.0, 1.0);

    auto chunkFn = [&](std::size_t b, std::size_t e) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i)
            s += v[i] * v[i];
        return s;
    };

    for (std::size_t grain :
         {std::size_t{128}, std::size_t{1024}, std::size_t{4096}}) {
        // Serial reference with the identical chunk decomposition.
        double serial = 0.0;
        for (std::size_t b = 0; b < n; b += grain)
            serial += chunkFn(b, std::min(n, b + grain));
        const double parallel =
            pool.parallelReduceSum(0, n, grain, chunkFn);
        EXPECT_EQ(serial, parallel) << "grain " << grain;
    }
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 1000, 10,
                         [](std::size_t b, std::size_t) {
                             if (b >= 500)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);

    // The pool must stay usable after an exception.
    std::atomic<std::size_t> visited{0};
    pool.parallelFor(0, 1000, 10,
                     [&](std::size_t b, std::size_t e) {
                         visited.fetch_add(e - b);
                     });
    EXPECT_EQ(visited.load(), 1000u);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> inner{0};
    pool.parallelFor(0, 64, 4, [&](std::size_t b, std::size_t e) {
        // A nested region from inside a worker must not deadlock.
        pool.parallelFor(0, 10, 2,
                         [&](std::size_t ib, std::size_t ie) {
                             inner.fetch_add(ie - ib);
                         });
        (void)b;
        (void)e;
    });
    EXPECT_EQ(inner.load(), 10u * (64 / 4));
}

TEST(ThreadPool, Blas1KernelsBitIdenticalSerialVsParallel)
{
    ParallelGuard guard;
    // Pre-first-use override so the pooled branch really runs even
    // on a single-core host (own process per discovered test).
    ThreadPool::setGlobalThreads(4);
    Rng rng(7);
    const std::size_t n = 20000; // above the kernels' dispatch threshold
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.gaussian(0.0, 3.0);
        b[i] = rng.gaussian(0.0, 3.0);
    }

    ThreadPool::setParallelEnabled(true);
    const double dotPar = dot(a, b);
    const double normPar = norm2(a);
    ThreadPool::setParallelEnabled(false);
    const double dotSer = dot(a, b);
    const double normSer = norm2(a);

    EXPECT_EQ(dotPar, dotSer);
    EXPECT_EQ(normPar, normSer);
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

TEST(Determinism, SteadyCgBitIdenticalSerialVsParallel)
{
    ParallelGuard guard;
    // Force a real multi-thread pool regardless of the host's core
    // count (each discovered test runs in its own process, so this
    // pre-first-use override cannot leak into other tests), and make
    // the system big enough that the SpMV / BLAS-1 kernels take
    // their thread-pooled branch when parallelism is enabled.
    ThreadPool::setGlobalThreads(4);
    Rng rng(31);
    const GridStencilOperator op = randomStencil(24, 24, 8, rng);
    std::vector<double> b(op.rows());
    for (double &v : b)
        v = rng.uniform(0.0, 2.0);

    // Jacobi keeps this on the plain CG kernels; the V-cycle has its
    // own test below.
    IterativeOptions opts;
    opts.tolerance = 1e-11;
    opts.preconditioner = PreconditionerKind::Jacobi;

    ThreadPool::setParallelEnabled(true);
    const IterativeResult par = conjugateGradient(op, b, {}, opts);
    ThreadPool::setParallelEnabled(false);
    const IterativeResult ser = conjugateGradient(op, b, {}, opts);

    ASSERT_TRUE(par.converged);
    ASSERT_TRUE(ser.converged);
    ASSERT_EQ(par.iterations, ser.iterations);
    for (std::size_t i = 0; i < b.size(); ++i)
        ASSERT_EQ(par.x[i], ser.x[i]) << "node " << i;
}

TEST(Determinism, MultigridCgBitIdenticalSerialVsParallel)
{
    ParallelGuard guard;
    // Same pre-first-use override as the plain-CG determinism test:
    // force a real pool and a grid large enough that the smoother,
    // transfer, and residual loops take their thread-pooled branches.
    ThreadPool::setGlobalThreads(4);
    Rng rng(47);
    const GridStencilOperator op = randomStencil(32, 32, 6, rng);
    std::vector<double> b(op.rows());
    for (double &v : b)
        v = rng.uniform(0.0, 2.0);

    IterativeOptions opts;
    opts.tolerance = 1e-11;
    opts.preconditioner = PreconditionerKind::Multigrid;

    ThreadPool::setParallelEnabled(true);
    const IterativeResult par = conjugateGradient(op, b, {}, opts);
    ThreadPool::setParallelEnabled(false);
    const IterativeResult ser = conjugateGradient(op, b, {}, opts);

    ASSERT_TRUE(par.converged);
    ASSERT_TRUE(ser.converged);
    ASSERT_EQ(par.iterations, ser.iterations);
    for (std::size_t i = 0; i < b.size(); ++i)
        ASSERT_EQ(par.x[i], ser.x[i]) << "node " << i;
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
