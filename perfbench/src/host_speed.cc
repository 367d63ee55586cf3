#include "host_speed.hh"

#include <time.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "inputs.hh"

namespace perfbench
{

namespace
{

// A thermal grid's size: 32 x 32 cells, 8 layers, 7-point stencil.
constexpr std::size_t kNx = 32, kNy = 32, kNz = 8;
constexpr std::size_t kSweeps = 300;

/** One copy of the reference job; returns a checksum. */
double
referenceJob()
{
    const std::size_t n = kNx * kNy * kNz;
    // Assemble a CSR matrix with fixed pseudo-random conductances.
    std::vector<std::size_t> rowStart{0};
    std::vector<std::size_t> col;
    std::vector<double> val;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return 0.5 + static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    for (std::size_t k = 0; k < kNz; ++k) {
        for (std::size_t j = 0; j < kNy; ++j) {
            for (std::size_t i = 0; i < kNx; ++i) {
                const std::size_t row = (k * kNy + j) * kNx + i;
                double diag = 0.1;
                const auto link = [&](std::size_t other) {
                    const double g = next();
                    col.push_back(other);
                    val.push_back(-g);
                    diag += g;
                };
                if (k > 0)
                    link(row - kNx * kNy);
                if (j > 0)
                    link(row - kNx);
                if (i > 0)
                    link(row - 1);
                if (i + 1 < kNx)
                    link(row + 1);
                if (j + 1 < kNy)
                    link(row + kNx);
                if (k + 1 < kNz)
                    link(row + kNx * kNy);
                col.push_back(row);
                val.push_back(diag);
                rowStart.push_back(col.size());
            }
        }
    }
    // Normalized matrix-vector sweeps (fixed work, no convergence).
    std::vector<double> x(n, 1.0), y(n);
    double norm = 0.0;
    for (std::size_t s = 0; s < kSweeps; ++s) {
        double sq = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            double acc = 0.0;
            for (std::size_t e = rowStart[r]; e < rowStart[r + 1]; ++e)
                acc += val[e] * x[col[e]];
            y[r] = acc;
            sq += acc * acc;
        }
        norm = std::sqrt(sq);
        for (std::size_t r = 0; r < n; ++r)
            x[r] = y[r] / norm;
    }
    return norm;
}

/** CPU seconds this thread has run. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

double
referenceSeconds()
{
    std::vector<double> sums(kJobThreads), cpu(kJobThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kJobThreads; ++t) {
        threads.emplace_back([&sums, &cpu, t] {
            const double c0 = threadCpuSeconds();
            sums[t] = referenceJob();
            cpu[t] = threadCpuSeconds() - c0;
        });
    }
    for (std::thread &t : threads)
        t.join();
    // Every copy computes the same fixed answer.
    double total = 0.0;
    for (std::size_t t = 0; t < kJobThreads; ++t) {
        if (!(sums[t] > 0.0) || sums[t] != sums[0])
            throw std::runtime_error("host-speed reference job miscomputed");
        total += cpu[t];
    }
    return total / static_cast<double>(kJobThreads);
}

} // namespace perfbench
