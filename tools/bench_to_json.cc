/**
 * @file
 * Bench-trajectory harness: times each optimization against a
 * baseline configuration — Jacobi-CG vs multigrid-CG for steady
 * solves, the pre-optimization per-step-alloc CSR integrator vs the
 * factored Crank-Nicolson integrator for transients, per-job MG-CG
 * solves vs the impulse-superposition path for single-stack sweeps —
 * and writes the results as BENCH_perf.json (schema
 * irtherm.bench.v1).
 *
 * This is deliberately a standalone tool rather than a parser over
 * google-benchmark output: it measures exactly the baseline/optimized
 * pairs the performance claims are stated over, in one process, so
 * the two sides see identical machine conditions.
 *
 * usage: bench_to_json [-o <file>] [--repeat <n>]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "core/package.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "legacy_solvers.hh"
#include "numeric/grid_stencil.hh"
#include "numeric/impulse_cache.hh"
#include "numeric/iterative.hh"
#include "numeric/ode.hh"

namespace irtherm
{
namespace
{

/** Same grid topology as bench_perf_solvers: 4 silicon layers plus
 *  an uncoupled film layer with ground paths. */
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

/** Best-of-@p repeat wall time of @p fn, in seconds. */
template <typename Fn>
double
bestOf(int repeat, const Fn &fn)
{
    double best = 1e300;
    for (int r = 0; r < repeat; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

struct BenchRow
{
    std::string name;
    std::string unit;       ///< what the times measure
    double baselineSeconds = 0.0;
    double optimizedSeconds = 0.0;
    std::string baselineNote;
    std::string optimizedNote;

    double speedup() const
    {
        return optimizedSeconds > 0.0
                   ? baselineSeconds / optimizedSeconds
                   : 0.0;
    }
};

/**
 * Steady CG to 1e-11 on an n x n grid system: the one-level
 * preconditioner (Jacobi-preconditioned stencil CG) against the
 * geometric-multigrid V-cycle. Both sides share the thread-pool
 * setting, so the delta is purely the preconditioner's iteration
 * count and per-iteration cost.
 */
BenchRow
benchSteadyCg(std::size_t n, int repeat)
{
    const GridStencilOperator op = makeGridOperator(n);
    const std::vector<double> b(op.rows(), 1.0);

    IterativeOptions opts;
    opts.tolerance = 1e-11;
    opts.maxIterations = 200000;

    BenchRow row;
    row.name = "steady_cg_grid" + std::to_string(n);
    row.unit = "seconds per solve";

    std::size_t baseIters = 0, optIters = 0;
    ThreadPool::setParallelEnabled(true);
    row.baselineSeconds = bestOf(repeat, [&] {
        IterativeOptions jacobi = opts;
        jacobi.preconditioner = PreconditionerKind::Jacobi;
        const IterativeResult r = conjugateGradient(op, b, {}, jacobi);
        if (!r.converged)
            fatal("baseline steady CG failed to converge");
        baseIters = r.iterations;
    });
    row.optimizedSeconds = bestOf(repeat, [&] {
        IterativeOptions mg = opts;
        mg.preconditioner = PreconditionerKind::Multigrid;
        const IterativeResult r = conjugateGradient(op, b, {}, mg);
        if (!r.converged)
            fatal("optimized steady CG failed to converge");
        optIters = r.iterations;
    });
    row.baselineNote = "stencil+jacobi pooled, " +
                       std::to_string(baseIters) + " iters";
    row.optimizedNote = "stencil+mg-vcycle pooled, " +
                        std::to_string(optIters) + " iters";
    return row;
}

/**
 * Fixed-step transient throughput: @p steps Crank-Nicolson steps.
 * The optimized side constructs the integrator inside the timed
 * region, so its time includes factoring the system once; over 50
 * steps at grid 16 that factor is most of the total (the retired
 * stencil CG integrator, which factored nothing, was cheaper here),
 * and it pays off on longer runs.
 */
BenchRow
benchTransientCn(std::size_t n, int steps, int repeat)
{
    const GridStencilOperator op = makeGridOperator(n);
    const CsrMatrix csr = op.toCsr();
    const std::vector<double> cap(op.rows(), 1.0);
    const std::vector<double> power(op.rows(), 0.5);
    const double dt = 1e-3;

    BenchRow row;
    row.name = "transient_cn_grid" + std::to_string(n) + "_x" +
               std::to_string(steps);
    row.unit = "seconds per " + std::to_string(steps) + " steps";

    // Single-thread on both sides: this row isolates the algorithmic
    // gains (one factor for every step, zero per-step allocation).
    ThreadPool::setParallelEnabled(false);
    row.baselineSeconds = bestOf(repeat, [&] {
        legacy::CrankNicolson cn(csr, cap, dt);
        std::vector<double> t(op.rows(), 0.0);
        for (int s = 0; s < steps; ++s)
            cn.step(t, power);
    });
    row.optimizedSeconds = bestOf(repeat, [&] {
        CrankNicolsonIntegrator cn(csr, cap, dt);
        std::vector<double> t(op.rows(), 0.0);
        for (int s = 0; s < steps; ++s)
            cn.step(t, power);
    });
    ThreadPool::setParallelEnabled(true);
    row.baselineNote = "pre-PR per-step alloc csr+jacobi, 1 thread";
    row.optimizedNote = "factored csr integrator, 1 thread";
    return row;
}

/**
 * Pooled vs serial stencil matvec (pure parallel-scaling row). The
 * thread count is part of the bench name so that files produced on
 * hosts with different pool widths are never compared against each
 * other — the old un-suffixed row once froze a "1 threads vs serial"
 * non-measurement into the committed baseline.
 */
BenchRow
benchMatvec(std::size_t n, int calls, int repeat)
{
    const GridStencilOperator op = makeGridOperator(n);
    std::vector<double> x(op.rows(), 1.0), y(op.rows());

    BenchRow row;
    row.name = "spmv_grid" + std::to_string(n) + "_x" +
               std::to_string(calls) + "_t" +
               std::to_string(ThreadPool::plannedGlobalThreads());
    row.unit = "seconds per " + std::to_string(calls) + " matvecs";

    ThreadPool::setParallelEnabled(false);
    row.baselineSeconds = bestOf(repeat, [&] {
        for (int c = 0; c < calls; ++c)
            op.apply(x, y);
    });
    ThreadPool::setParallelEnabled(true);
    row.optimizedSeconds = bestOf(repeat, [&] {
        for (int c = 0; c < calls; ++c)
            op.apply(x, y);
    });
    row.baselineNote = "serial";
    row.optimizedNote =
        std::to_string(ThreadPool::plannedGlobalThreads()) +
        " threads";
    return row;
}

/**
 * Amortized per-job cost of a 1000-job single-stack steady sweep:
 * one iterative solve per job (the default chain) vs the impulse
 * superposition path, where the first job builds the block response
 * matrix and every later job is a verified dense GEMV. The baseline
 * side times a 16-job sample (its per-job cost is constant); the
 * optimized side runs all @p jobs including the build, with the
 * process-wide cache cleared per repeat so the build is always paid.
 */
BenchRow
benchSuperposedSweep(int jobs, int repeat)
{
    const Floorplan fp = floorplans::alphaEv6();
    const PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 32;
    mo.gridNy = 32;
    const StackModel model(fp, pkg, mo);

    const std::size_t blocks = fp.blockCount();
    auto powersFor = [&](int job) {
        std::vector<double> p(blocks);
        for (std::size_t b = 0; b < blocks; ++b)
            p[b] = 0.5 + 0.01 * static_cast<double>(
                             (static_cast<std::size_t>(job) * 7 + b) %
                             13);
        return p;
    };

    BenchRow row;
    row.name = "steady_superpose_ev6grid32_x" + std::to_string(jobs);
    row.unit = "seconds per job (amortized over " +
               std::to_string(jobs) + ")";

    ThreadPool::setParallelEnabled(true);
    const int sample = 16;
    row.baselineSeconds = bestOf(repeat, [&] {
        // MG-CG: the default per-job solve when superposition is
        // off.
        StackModel::SteadySolveOptions sopts;
        sopts.preconditioner = PreconditionerKind::Multigrid;
        for (int j = 0; j < sample; ++j)
            model.steadyNodeTemperatures(powersFor(j), sopts);
    }) / sample;
    row.optimizedSeconds = bestOf(repeat, [&] {
        ImpulseResponseCache::global().clear();
        StackModel::SteadySolveOptions sopts;
        sopts.superposition = true;
        sopts.stackKey = 0x5eed5eed;
        sopts.preconditioner = PreconditionerKind::Multigrid;
        for (int j = 0; j < jobs; ++j)
            model.steadyNodeTemperatures(powersFor(j), sopts);
    }) / jobs;
    ImpulseResponseCache::global().clear();
    row.baselineNote = "per-job mg-cg (16-job sample)";
    row.optimizedNote = "impulse build + verified GEMV per job, " +
                        std::to_string(blocks) + " blocks";
    return row;
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void
writeJson(std::ostream &os, const std::vector<BenchRow> &rows)
{
    os << "{\n  \"schema\": \"irtherm.bench.v1\",\n"
       << "  \"threads\": " << ThreadPool::plannedGlobalThreads()
       << ",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ",\n  \"baseline\": \"per-row; see each bench's baseline"
          " note\",\n  \"benches\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const BenchRow &r = rows[i];
        os << "    {\"name\": \"" << r.name << "\", \"unit\": \""
           << r.unit << "\",\n"
           << "     \"baseline_s\": " << jsonNum(r.baselineSeconds)
           << ", \"baseline\": \"" << r.baselineNote << "\",\n"
           << "     \"optimized_s\": " << jsonNum(r.optimizedSeconds)
           << ", \"optimized\": \"" << r.optimizedNote << "\",\n"
           << "     \"speedup\": " << jsonNum(r.speedup()) << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace
} // namespace irtherm

int
main(int argc, char **argv)
{
    using namespace irtherm;

    std::string outPath = "BENCH_perf.json";
    int repeat = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeat = std::max(1, std::atoi(argv[++i]));
        } else {
            std::fprintf(stderr,
                         "usage: bench_to_json [-o <file>] "
                         "[--repeat <n>]\n");
            return 2;
        }
    }

    std::vector<BenchRow> rows;
    rows.push_back(benchSteadyCg(16, repeat));
    rows.push_back(benchSteadyCg(32, repeat));
    rows.push_back(benchTransientCn(16, 50, repeat));
    rows.push_back(benchSuperposedSweep(1000, repeat));
    // On a single-hardware-thread host the pooled side of the matvec
    // row measures nothing but pool overhead; skip it rather than
    // freeze a vacuous "1 threads vs serial" pair into the file.
    if (std::thread::hardware_concurrency() > 1)
        rows.push_back(benchMatvec(64, 200, repeat));
    else
        std::fprintf(stderr,
                     "bench_to_json: skipping spmv parallel-vs-serial "
                     "row (hardware_concurrency == 1)\n");

    std::ofstream out(outPath);
    if (!out)
        fatal("bench_to_json: cannot open ", outPath);
    writeJson(out, rows);

    for (const BenchRow &r : rows) {
        std::printf("%-28s baseline %.4gs  optimized %.4gs  "
                    "speedup %.2fx\n",
                    r.name.c_str(), r.baselineSeconds,
                    r.optimizedSeconds, r.speedup());
    }
    std::printf("wrote %s\n", outPath.c_str());
    return 0;
}
