/**
 * @file
 * google-benchmark microbenchmarks of the numerical core: model
 * assembly, steady CG solves, and transient integrator throughput.
 * These guard the performance envelope that makes the Fig. 12
 * 40 000-sample replays tractable.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hh"
#include "legacy_solvers.hh"

#include "base/thread_pool.hh"
#include "numeric/ode.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "numeric/grid_stencil.hh"
#include "numeric/impulse_cache.hh"
#include "numeric/iterative.hh"

using namespace irtherm;

namespace
{

/**
 * Physical-flavoured n x n x 5 grid system (four silicon layers plus
 * an uncoupled film layer with a ground path), the same topology
 * FdSolver assembles. Used for the stencil-vs-CSR and
 * parallel-vs-serial comparisons below.
 */
GridStencilOperator
makeGridOperator(std::size_t n)
{
    const std::size_t nzSi = 4;
    GridStencilOperator op(n, n, nzSi + 1);
    for (std::size_t iz = 0; iz < nzSi; ++iz) {
        for (std::size_t iy = 0; iy < n; ++iy) {
            for (std::size_t ix = 0; ix < n; ++ix) {
                if (ix + 1 < n)
                    op.stampLinkX(ix, iy, iz, 0.8);
                if (iy + 1 < n)
                    op.stampLinkY(ix, iy, iz, 0.8);
                if (iz + 1 < nzSi)
                    op.stampLinkZ(ix, iy, iz, 4.0);
            }
        }
    }
    for (std::size_t iy = 0; iy < n; ++iy) {
        for (std::size_t ix = 0; ix < n; ++ix) {
            op.stampLinkZ(ix, iy, nzSi - 1, 0.05);
            op.stampGround(ix, iy, nzSi, 0.02);
        }
    }
    return op;
}

ModelOptions
gridOpts(std::size_t n)
{
    ModelOptions o;
    o.mode = ModelMode::Grid;
    o.gridNx = n;
    o.gridNy = n;
    return o;
}

void
BM_AssembleGridModel(benchmark::State &state)
{
    const Floorplan fp = floorplans::alphaEv6();
    const PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        const StackModel model(fp, pkg, gridOpts(n));
        benchmark::DoNotOptimize(model.nodeCount());
    }
    state.SetLabel(std::to_string(n) + "x" + std::to_string(n));
}
BENCHMARK(BM_AssembleGridModel)->Arg(8)->Arg(16)->Arg(32);

void
BM_SteadySolveGrid(benchmark::State &state)
{
    const Floorplan fp = floorplans::alphaEv6();
    const PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);
    const auto n = static_cast<std::size_t>(state.range(0));
    const StackModel model(fp, pkg, gridOpts(n));
    std::vector<double> powers(fp.blockCount(), 2.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.steadyNodeTemperatures(powers));
    }
    state.SetLabel(std::to_string(model.nodeCount()) + " nodes");
}
BENCHMARK(BM_SteadySolveGrid)->Arg(8)->Arg(16)->Arg(32);

void
BM_Rk4TraceSample(benchmark::State &state)
{
    // One Fig. 12 trace step: advance the block-mode EV6 by 3.33 us.
    const Floorplan fp = floorplans::alphaEv6();
    const StackModel model(fp, PackageConfig::makeAirSink(0.3));
    ThermalSimulator sim(model);
    std::vector<double> powers(fp.blockCount(), 2.0);
    sim.setBlockPowers(powers);
    for (auto _ : state)
        sim.advance(3.33e-6);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Rk4TraceSample);

void
BM_BackwardEulerStepGrid(benchmark::State &state)
{
    const Floorplan fp = floorplans::alphaEv6();
    const PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);
    const auto n = static_cast<std::size_t>(state.range(0));
    const StackModel model(fp, pkg, gridOpts(n));
    SimulatorOptions so;
    so.integrator = IntegratorKind::BackwardEuler;
    so.implicitStep = 1e-3;
    ThermalSimulator sim(model, so);
    std::vector<double> powers(fp.blockCount(), 2.0);
    sim.setBlockPowers(powers);
    for (auto _ : state)
        sim.advance(1e-3);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BackwardEulerStepGrid)->Arg(16)->Arg(32);

/**
 * Steady CG on the grid system across the solver trajectory:
 * range(1) = 0 is the pre-optimization configuration
 * (legacy_solvers.hh: assembled CSR, Jacobi, redundant norm2 pass,
 * serial kernels), 1 is the stencil + geometric multigrid V-cycle
 * preconditioner. range(0) is the lateral grid size.
 */
void
BM_SteadyCgGrid(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const int config = static_cast<int>(state.range(1));
    const GridStencilOperator op = makeGridOperator(n);
    const CsrMatrix csr = op.toCsr();
    const std::vector<double> b(op.rows(), 1.0);

    IterativeOptions opts;
    opts.tolerance = 1e-11;
    opts.maxIterations = 200000;

    ThreadPool::setParallelEnabled(config != 0);
    std::size_t iterations = 0;
    for (auto _ : state) {
        const IterativeResult res =
            config != 0 ? conjugateGradient(op, b, {}, opts)
                        : legacy::conjugateGradient(csr, b, {}, opts);
        iterations = res.iterations;
        benchmark::DoNotOptimize(res.x.data());
    }
    ThreadPool::setParallelEnabled(true);
    static const char *kConfigNames[] = {"legacy ", "mg "};
    state.SetLabel(kConfigNames[config] +
                   std::to_string(iterations) + " iters");
}
BENCHMARK(BM_SteadyCgGrid)
    ->Args({16, 0})->Args({16, 1})
    ->Args({32, 0})->Args({32, 1});

/**
 * Amortized per-job steady-solve cost over a single-stack sweep:
 * range(0) jobs against one EV6 grid model, each iteration of the
 * benchmark runs the whole sweep through the impulse-superposition
 * path (build once, verified GEMV per job) with the cache cleared up
 * front. Compare items/s against BM_SteadySolveGrid/32 for the
 * per-job iterative cost.
 */
void
BM_SuperposedSweep(benchmark::State &state)
{
    const Floorplan fp = floorplans::alphaEv6();
    const PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);
    const StackModel model(fp, pkg, gridOpts(32));
    const auto jobs = static_cast<int>(state.range(0));
    const std::size_t blocks = fp.blockCount();

    std::vector<double> powers(blocks);
    for (auto _ : state) {
        ImpulseResponseCache::global().clear();
        StackModel::SteadySolveOptions sopts;
        sopts.superposition = true;
        sopts.stackKey = 0x5eed5eed;
        sopts.preconditioner = PreconditionerKind::Multigrid;
        for (int j = 0; j < jobs; ++j) {
            for (std::size_t bk = 0; bk < blocks; ++bk)
                powers[bk] =
                    0.5 + 0.01 * static_cast<double>(
                                     (static_cast<std::size_t>(j) * 7 +
                                      bk) %
                                     13);
            benchmark::DoNotOptimize(
                model.steadyNodeTemperatures(powers, sopts));
        }
    }
    ImpulseResponseCache::global().clear();
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * jobs);
    state.SetLabel(std::to_string(blocks) + " blocks");
}
BENCHMARK(BM_SuperposedSweep)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/**
 * Single-thread transient throughput: the pre-optimization
 * Crank-Nicolson step (per-step rhs allocation, workspace rebuilt
 * per solve) vs the factored CSR integrator, whose one-time factor
 * is paid before the timed loop.
 */
void
BM_TransientCnGrid(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const bool optimized = state.range(1) != 0;
    const GridStencilOperator op = makeGridOperator(n);
    const CsrMatrix csr = op.toCsr();
    const std::vector<double> cap(op.rows(), 1.0);
    const std::vector<double> power(op.rows(), 0.5);
    const double dt = 1e-3;

    ThreadPool::setParallelEnabled(false);
    std::vector<double> t(op.rows(), 0.0);
    if (optimized) {
        CrankNicolsonIntegrator cn(csr, cap, dt);
        for (auto _ : state)
            cn.step(t, power);
    } else {
        legacy::CrankNicolson cn(csr, cap, dt);
        for (auto _ : state)
            cn.step(t, power);
    }
    ThreadPool::setParallelEnabled(true);
    state.SetLabel(optimized ? "optimized" : "baseline");
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TransientCnGrid)
    ->Args({16, 0})->Args({16, 1})
    ->Args({32, 0})->Args({32, 1});

/** Stencil matvec vs the equivalent assembled-CSR matvec. */
void
BM_MatvecGrid(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const bool stencil = state.range(1) != 0;
    const GridStencilOperator op = makeGridOperator(n);
    const CsrMatrix csr = op.toCsr();
    std::vector<double> x(op.rows(), 1.0), y(op.rows());
    for (auto _ : state) {
        if (stencil)
            op.apply(x, y);
        else
            csr.apply(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetLabel(stencil ? "stencil" : "csr");
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * op.rows()));
}
BENCHMARK(BM_MatvecGrid)
    ->Args({32, 0})->Args({32, 1})
    ->Args({64, 0})->Args({64, 1});

/** Thread-pooled vs serial execution of the same stencil matvec. */
void
BM_MatvecParallelVsSerial(benchmark::State &state)
{
    const bool parallel = state.range(0) != 0;
    const GridStencilOperator op = makeGridOperator(64);
    std::vector<double> x(op.rows(), 1.0), y(op.rows());
    ThreadPool::setParallelEnabled(parallel);
    for (auto _ : state) {
        op.apply(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    ThreadPool::setParallelEnabled(true);
    state.SetLabel(parallel ? std::to_string(
                                  ThreadPool::plannedGlobalThreads()) +
                                  " threads"
                            : "serial");
}
BENCHMARK(BM_MatvecParallelVsSerial)->Arg(0)->Arg(1);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    bench::dumpMetricsIfRequested();
    return 0;
}
