/**
 * @file
 * Fig. 2: transient validation of the oil-flow model.
 *
 * Paper setup: 20x20x0.5 mm silicon, 200 W uniform power step,
 * 10 m/s oil flow (Rconv ~ 1.0 K/W), temperature probed at the die
 * centre; ANSYS vs modified HotSpot. Here: the compact StackModel
 * vs the independent fine-grid FD reference solver. The paper's
 * claim: both take a similar time to reach steady state, with a
 * thermal time constant on the order of a second.
 *
 * Claim gate (`ctest -L paper`): exits 1 when the shape breaks —
 * both 63.2% rise times must lie within 0.5-1.5 s and within 25% of
 * each other, and the two steady rises within 10% of each other.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/str.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "bench_common.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "materials/fluid.hh"
#include "materials/material.hh"
#include "numeric/fit.hh"
#include "refsim/fd_solver.hh"

using namespace irtherm;

int
main()
{
    bench::banner("Fig. 2", "oil-flow transient validation, 200 W step",
                  "both models reach steady state on a ~1 s time "
                  "constant; curves overlap");

    const double ambient_c = toCelsius(300.0); // paper plots kelvin
    const double total_power = 200.0;
    const double duration = 5.0;
    const double sample = 0.25;

    // Reference: fine-grid FD solver (the ANSYS substitute).
    FdOptions fo;
    fo.nx = 32;
    fo.ny = 32;
    fo.nz = 4;
    fo.timeStep = 2.5e-3;
    const FdSolver fd(0.02, 0.02, 0.5e-3, materials::silicon(),
                      fluids::irTransparentOil(), 10.0,
                      FlowDirection::LeftToRight, 300.0, fo);
    const auto fd_trace = fd.transientFromAmbient(
        fd.uniformPowerMap(total_power), duration, sample);

    // Compact model: bare die under oil, block mode (the validation
    // predates the package extension, so no secondary path).
    const Floorplan fp = floorplans::uniformChip(4, 0.02, 0.02);
    PackageConfig pkg = PackageConfig::makeOilSilicon(
        10.0, FlowDirection::LeftToRight, ambient_c);
    pkg.secondary.enabled = false;
    const StackModel model(fp, pkg);
    std::printf("compact model equivalent Rconv: %.3f K/W "
                "(reference: %.3f K/W)\n\n",
                model.equivalentPrimaryResistance(),
                fd.equivalentConvectiveResistance());

    ThermalSimulator sim(model);
    sim.setBlockPowers(
        std::vector<double>(fp.blockCount(), total_power / 16.0));

    TextTable table(
        {"time (s)", "HotSpot-like (K)", "reference FD (K)"});
    std::vector<double> times, m_rises, fd_rises;
    table.addRow("0.00", {300.0, 300.0});
    for (std::size_t i = 1; i < fd_trace.size(); ++i) {
        sim.advance(sample);
        const auto bt = sim.blockTemperatures();
        const double mean = bench::meanOf(bt);
        times.push_back(fd_trace[i].time);
        m_rises.push_back(mean - 300.0);
        fd_rises.push_back(fd_trace[i].meanTemp - 300.0);
        table.addRow(formatFixed(fd_trace[i].time, 2),
                     {mean, fd_trace[i].meanTemp});
    }
    table.print(std::cout);

    const double m_t63 =
        timeToFraction(times, m_rises, m_rises.back(), 0.632);
    const double fd_t63 =
        timeToFraction(times, fd_rises, fd_rises.back(), 0.632);
    std::printf("\n63.2%% rise time: compact %.2f s, reference %.2f s "
                "(paper: both 'on the order of a second')\n",
                m_t63, fd_t63);
    std::printf("steady rise: compact %.1f K, reference %.1f K\n",
                m_rises.back(), fd_rises.back());

    bool holds = true;
    const auto broken = [&holds](const char *what) {
        std::printf("claim broken: %s\n", what);
        holds = false;
    };
    const auto withinSecond = [](double t) {
        return t >= 0.5 && t <= 1.5;
    };
    if (!withinSecond(m_t63))
        broken("the compact model's 63.2% rise time is outside "
               "0.5-1.5 s");
    if (!withinSecond(fd_t63))
        broken("the reference's 63.2% rise time is outside 0.5-1.5 s");
    if (!(std::abs(m_t63 - fd_t63) <= 0.25 * std::max(m_t63, fd_t63)))
        broken("the two 63.2% rise times differ by more than 25%");
    if (!(std::abs(m_rises.back() - fd_rises.back()) <=
          0.10 * std::max(m_rises.back(), fd_rises.back())))
        broken("the two steady rises differ by more than 10%");
    return holds ? 0 : 1;
}
