/**
 * @file
 * Shared helpers for the per-figure reproduction benches.
 *
 * Every bench prints: a banner naming the paper artifact it
 * regenerates, the paper's qualitative expectation, and the measured
 * rows/series. Absolute values are not expected to match the paper
 * (different substrate, reconstructed floorplans/powers); shapes and
 * orderings are.
 */

#ifndef IRTHERM_BENCH_COMMON_HH
#define IRTHERM_BENCH_COMMON_HH

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/units.hh"
#include "floorplan/presets.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "power/power_trace.hh"
#include "power/synthetic_cpu.hh"
#include "power/wattch_model.hh"

namespace irtherm::bench
{

/**
 * Dump the process-wide metrics registry as JSON when
 * IRTHERM_METRICS_OUT=<file> is set, so a bench run can be profiled
 * (solver iteration counts, step-size distributions) without touching
 * its printed rows. Runs as the process exits (dumpMetricsAtExit).
 */
inline void
dumpMetricsIfRequested()
{
    const char *path = std::getenv("IRTHERM_METRICS_OUT");
    if (!path || !*path)
        return;
    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench: cannot write metrics to " << path
                  << "\n";
        return;
    }
    obs::writeMetricsJson(out, obs::MetricsRegistry::global());
    std::cout << "wrote metrics to " << path << "\n";
}

/**
 * Register dumpMetricsIfRequested() to run at exit, once per process
 * however often it is called. The registry is touched first: it is
 * then constructed before the hook is registered, so it is destroyed
 * after the hook runs.
 */
inline void
dumpMetricsAtExit()
{
    static const bool registered = [] {
        obs::MetricsRegistry::global();
        return std::atexit(dumpMetricsIfRequested) == 0;
    }();
    (void)registered;
}

/**
 * Print the bench's banner. Every paper bench calls this first, so it
 * also arms the IRTHERM_METRICS_OUT dump (dumpMetricsAtExit).
 */
inline void
banner(const std::string &id, const std::string &what,
       const std::string &expectation)
{
    dumpMetricsAtExit();
    std::cout << "==============================================="
                 "=================\n"
              << id << ": " << what << "\n"
              << "paper expectation: " << expectation << "\n"
              << "==============================================="
                 "=================\n";
}

inline double
maxOf(const std::vector<double> &v)
{
    return *std::max_element(v.begin(), v.end());
}

inline double
minOf(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

inline double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/**
 * The Athlon IR-rig operating point of Figs. 4-5.
 *
 * Mesa-Martinez et al.'s exact flow conditions and per-block powers
 * are not published, so the rig is calibrated to land the paper's
 * quoted map: an effective laminar-equivalent oil speed of 80 m/s
 * (the real rig's film coefficient exceeds clean flat-plate theory
 * at realistic speeds), oil at 40 C, the scheduler at 6 W and a 20%
 * background activity elsewhere (~11 W total). This reproduces
 * "Sched ~73 C, coolest ~45 C". DESIGN.md records the substitution.
 */
inline double athlonRigVelocity() { return 80.0; }
inline double athlonRigAmbientCelsius() { return 40.0; }

inline std::vector<double>
athlonRigPowers(const Floorplan &fp)
{
    const WattchPowerModel pm = WattchPowerModel::athlon64();
    const std::vector<double> by_unit =
        pm.dynamicPower(std::vector<double>(pm.unitCount(), 0.5));
    std::vector<double> powers(fp.blockCount());
    for (std::size_t b = 0; b < fp.blockCount(); ++b) {
        powers[b] = 0.2 * by_unit[pm.unitIndex(fp.block(b).name)];
        if (fp.block(b).name == "sched")
            powers[b] = 6.0;
    }
    return powers;
}

/**
 * Average per-block gcc powers for the EV6 floorplan: a long
 * synthetic-CPU run collapsed to its mean, in floorplan block order.
 */
inline std::vector<double>
ev6GccAveragePowers(const Floorplan &fp, std::size_t samples = 20000)
{
    const WattchPowerModel model = WattchPowerModel::alphaEv6();
    SyntheticCpu cpu(model, workloads::gcc());
    const PowerTrace trace = cpu.generate(samples);
    return trace.reorderedFor(fp).averagePowers();
}

} // namespace irtherm::bench

#endif // IRTHERM_BENCH_COMMON_HH
