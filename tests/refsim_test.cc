/**
 * @file
 * Tests of the finite-difference reference solver and its agreement
 * with the compact StackModel — the code-level version of the
 * paper's Figs. 2-3 ANSYS validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "materials/fluid.hh"
#include "materials/material.hh"
#include "numeric/fit.hh"
#include "numeric/iterative.hh"
#include "numeric/sparse.hh"
#include "obs/metrics.hh"
#include "refsim/fd_solver.hh"
#include "refsim/fd_stack_solver.hh"

namespace irtherm
{
namespace
{

FdOptions
smallFd()
{
    FdOptions o;
    o.nx = 24;
    o.ny = 24;
    o.nz = 3;
    o.timeStep = 5e-3;
    return o;
}

FdSolver
paperDie(const FdOptions &o = smallFd())
{
    return FdSolver(0.02, 0.02, 0.5e-3, materials::silicon(),
                    fluids::irTransparentOil(), 10.0,
                    FlowDirection::LeftToRight, toKelvin(45.0), o);
}

TEST(FdSolver, EquivalentResistanceNearUnity)
{
    // Local h(x) summed over cells approximates the plate average;
    // cell-centre sampling is a few percent off the exact integral.
    const FdSolver fd = paperDie();
    // Cell-centre sampling of the convex h(x) under-integrates near
    // the leading edge, so the FD resistance sits a few percent above
    // the exact plate value of 1.0 K/W.
    EXPECT_NEAR(fd.equivalentConvectiveResistance(), 1.0, 0.08);
}

TEST(FdSolver, UniformPowerMapSumsToTotal)
{
    const FdSolver fd = paperDie();
    const std::vector<double> p = fd.uniformPowerMap(200.0);
    double total = 0.0;
    for (double v : p)
        total += v;
    EXPECT_NEAR(total, 200.0, 1e-9);
}

TEST(FdSolver, CenterSourceMapConcentratesPower)
{
    const FdSolver fd = paperDie();
    const std::vector<double> p = fd.centerSourcePowerMap(10.0, 0.002);
    double total = 0.0;
    std::size_t nonzero = 0;
    for (double v : p) {
        total += v;
        if (v > 0.0)
            ++nonzero;
    }
    EXPECT_NEAR(total, 10.0, 1e-9);
    // A 2 mm source on a 20 mm die covers ~1% of cells.
    EXPECT_LT(nonzero, p.size() / 20);
}

TEST(FdSolver, SteadyUniformRiseBracketedByLumpedBounds)
{
    // With uniform power and a directional h(x), the mean rise lies
    // between P * Rconv (perfect lateral spreading) and
    // (4/3) P * Rconv (no spreading: T(x) ~ p / h(x), and the mean of
    // 1/h over the plate is 4/3 of 1/h_avg by Jensen's inequality).
    const FdSolver fd = paperDie();
    const auto temps =
        fd.steadyJunctionTemperatures(fd.uniformPowerMap(200.0));
    double mean = 0.0;
    for (double t : temps)
        mean += t;
    mean /= static_cast<double>(temps.size());
    const double rise = mean - toKelvin(45.0);
    const double lumped =
        200.0 * fd.equivalentConvectiveResistance();
    EXPECT_GT(rise, lumped);
    EXPECT_LT(rise, 4.0 / 3.0 * lumped * 1.02);
}

TEST(FdSolver, SteadyAgreesWithCompactModelFig3)
{
    // The paper's Fig. 3: 2x2 mm, 10 W centre source. Compare
    // Tmax / Tmin / dT between the compact model and the FD solver.
    const FdSolver fd = paperDie();
    const auto fd_temps =
        fd.steadyJunctionTemperatures(fd.centerSourcePowerMap(10.0,
                                                              0.002));
    const double fd_max =
        *std::max_element(fd_temps.begin(), fd_temps.end());
    const double fd_min =
        *std::min_element(fd_temps.begin(), fd_temps.end());

    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.002);
    std::vector<double> bp(fp.blockCount(), 0.0);
    bp[fp.blockIndex("hot")] = 10.0;
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 24;
    mo.gridNy = 24;
    const StackModel model(
        fp, PackageConfig::makeOilSilicon(10.0), mo);
    // Match the validation scope: bare die, no secondary path.
    PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);
    pkg.secondary.enabled = false;
    const StackModel bare(fp, pkg, mo);
    const auto nt = bare.steadyNodeTemperatures(bp);
    const auto cells = bare.siliconCellTemperatures(nt);
    const double m_max =
        *std::max_element(cells.begin(), cells.end());
    const double m_min =
        *std::min_element(cells.begin(), cells.end());

    // Same discretization density: the hot-spot rise agrees to
    // ~12%; the small corner rise (a couple of kelvin) is dominated
    // by the differing h(x) treatments, so it gets a looser band.
    const double amb = toKelvin(45.0);
    EXPECT_NEAR(m_max - amb, fd_max - amb,
                0.12 * (fd_max - amb));
    EXPECT_NEAR(m_min - amb, fd_min - amb,
                0.25 * std::max(2.0, fd_min - amb));
}

TEST(FdSolver, TransientTimeConstantOrderOfASecond)
{
    // Fig. 2: 200 W uniform step; the centre reaches steady with a
    // time constant on the order of a second.
    FdOptions o = smallFd();
    o.nx = 16;
    o.ny = 16;
    const FdSolver fd = paperDie(o);
    const auto trace = fd.transientFromAmbient(
        fd.uniformPowerMap(200.0), 3.0, 0.05);

    const double steady = trace.back().centerTemp;
    const double initial = trace.front().centerTemp;
    // Find the 63.2% crossing.
    double t63 = -1.0;
    for (const FdSample &s : trace) {
        if (s.centerTemp >= initial + 0.632 * (steady - initial)) {
            t63 = s.time;
            break;
        }
    }
    ASSERT_GT(t63, 0.0);
    EXPECT_GT(t63, 0.1);
    EXPECT_LT(t63, 1.5);
}

TEST(FdSolver, TransientAgreesWithCompactModelFig2)
{
    // Fig. 2's actual comparison: compact model vs reference on the
    // 200 W uniform step, probed at the die centre.
    FdOptions o;
    o.nx = 16;
    o.ny = 16;
    o.nz = 3;
    o.timeStep = 5e-3;
    const FdSolver fd = paperDie(o);
    const auto fd_trace = fd.transientFromAmbient(
        fd.uniformPowerMap(200.0), 2.0, 0.25);

    const Floorplan fp = floorplans::uniformChip(4, 0.02, 0.02);
    PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);
    pkg.secondary.enabled = false;
    const StackModel model(fp, pkg);
    ThermalSimulator sim(model);
    sim.setBlockPowers(std::vector<double>(fp.blockCount(),
                                           200.0 / 16.0));

    std::vector<double> times, fd_rises, m_rises;
    for (std::size_t i = 1; i < fd_trace.size(); ++i) {
        sim.advance(fd_trace[i].time - fd_trace[i - 1].time);
        const auto bt = sim.blockTemperatures();
        double mean = 0.0;
        for (double t : bt)
            mean += t;
        mean /= static_cast<double>(bt.size());
        times.push_back(fd_trace[i].time);
        fd_rises.push_back(fd_trace[i].meanTemp - toKelvin(45.0));
        m_rises.push_back(mean - toKelvin(45.0));
        // The FD model's effective Rconv is ~7% above the compact
        // model's exact 1.0 K/W (cell-centre h sampling), so rises
        // track within ~18% throughout the warm-up.
        EXPECT_NEAR(m_rises.back(), fd_rises.back(),
                    0.18 * fd_rises.back())
            << "at t = " << fd_trace[i].time;
    }

    // The paper's Fig. 2 claim is about the *time constant*: the two
    // independent models take similar times to cover 63.2% of their
    // own excursions.
    const double fd_t63 =
        timeToFraction(times, fd_rises, fd_rises.back(), 0.632);
    const double m_t63 =
        timeToFraction(times, m_rises, m_rises.back(), 0.632);
    ASSERT_GT(fd_t63, 0.0);
    ASSERT_GT(m_t63, 0.0);
    EXPECT_NEAR(m_t63, fd_t63, 0.35 * fd_t63);
}

TEST(FdSolver, CrankNicolsonFactorsOnceAndMatchesTightCg)
{
    FdOptions o = smallFd();
    o.nx = 12;
    o.ny = 12;
    const FdSolver fd = paperDie(o);
    const std::vector<double> cells = fd.uniformPowerMap(200.0);
    const std::size_t steps = 200, perSample = 40;

    auto &reg = obs::MetricsRegistry::global();
    const std::uint64_t factors = reg.counter("numeric.chol.factors").value();
    const std::uint64_t solves = reg.counter("numeric.chol.solves").value();
    const std::uint64_t cnSteps = reg.counter("numeric.cn.solves").value();
    const std::vector<FdSample> trace = fd.transientFromAmbient(
        cells, static_cast<double>(steps) * o.timeStep,
        static_cast<double>(perSample) * o.timeStep);
    ASSERT_EQ(trace.size(), steps / perSample + 1);

    // Reference: the same Crank-Nicolson steps through CG at 1e-13.
    const CsrMatrix g = fd.conductance().toCsr();
    std::vector<double> capOverDt = fd.capacitance();
    for (double &c : capOverDt)
        c /= o.timeStep;
    SparseBuilder b(g.rows(), g.cols());
    for (std::size_t r = 0; r < g.rows(); ++r) {
        for (std::size_t k = g.rowPointers()[r];
             k < g.rowPointers()[r + 1]; ++k)
            b.add(r, g.columnIndices()[k], 0.5 * g.storedValues()[k]);
        b.add(r, r, capOverDt[r]);
    }
    const CsrMatrix system = b.build();
    IterativeOptions tight;
    tight.tolerance = 1e-13;
    const std::vector<double> p = fd.nodePowers(cells);
    std::vector<double> t(g.rows(), 0.0), rhs(g.rows());
    const double ambient = toKelvin(45.0); // paperDie's
    for (std::size_t s = 1; s <= steps; ++s) {
        for (std::size_t i = 0; i < t.size(); ++i)
            rhs[i] = capOverDt[i] * t[i] + p[i];
        g.multiplyAccumulate(t, rhs, -0.5);
        const IterativeResult r = conjugateGradient(system, rhs, t, tight);
        ASSERT_TRUE(r.converged);
        t = r.x;
        if (s % perSample != 0)
            continue;
        // Junction cells are the first nx * ny nodes.
        const FdSample &got = trace[s / perSample];
        const std::size_t junction = o.nx * o.ny;
        double mx = -1e300, mn = 1e300, mean = 0.0;
        for (std::size_t i = 0; i < junction; ++i) {
            mx = std::max(mx, t[i]);
            mn = std::min(mn, t[i]);
            mean += t[i];
        }
        mean /= static_cast<double>(junction);
        SCOPED_TRACE("step " + std::to_string(s));
        EXPECT_NEAR(got.maxTemp, mx + ambient, 1e-9);
        EXPECT_NEAR(got.minTemp, mn + ambient, 1e-9);
        EXPECT_NEAR(got.meanTemp, mean + ambient, 1e-9);
        EXPECT_NEAR(got.centerTemp,
                    t[(o.ny / 2) * o.nx + o.nx / 2] + ambient, 1e-9);
    }

    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    // One factor, and every step a checked direct solve.
    EXPECT_EQ(reg.counter("numeric.chol.factors").value() - factors, 1u);
    EXPECT_EQ(reg.counter("numeric.cn.solves").value() - cnSteps, steps);
    EXPECT_EQ(reg.counter("numeric.chol.solves").value() - solves, steps);
}

TEST(FdSolver, FlowDirectionShiftsHotCell)
{
    // Uniform power, directional flow: the hottest cell sits
    // downstream.
    FdOptions o = smallFd();
    const FdSolver l2r(0.02, 0.02, 0.5e-3, materials::silicon(),
                       fluids::irTransparentOil(), 10.0,
                       FlowDirection::LeftToRight, toKelvin(45.0), o);
    const auto temps =
        l2r.steadyJunctionTemperatures(l2r.uniformPowerMap(100.0));
    const auto it = std::max_element(temps.begin(), temps.end());
    const std::size_t ix =
        static_cast<std::size_t>(it - temps.begin()) % o.nx;
    EXPECT_GT(ix, o.nx / 2); // hottest in the downstream half
}

TEST(FdSolver, RejectsBadPowerMap)
{
    const FdSolver fd = paperDie();
    EXPECT_THROW(fd.steadyJunctionTemperatures({1.0, 2.0}), FatalError);
}

TEST(FdStackSolver, RejectsNonAirPackage)
{
    EXPECT_THROW(FdStackSolver(0.02, 0.02,
                               PackageConfig::makeOilSilicon(10.0)),
                 FatalError);
}

TEST(FdStackSolver, UniformLoadRiseNearRconv)
{
    // With uniform power and copper spreading, the junction rise is
    // close to P * Rconv plus the small vertical ladder.
    PackageConfig pkg = PackageConfig::makeAirSink(1.0);
    pkg.secondary.enabled = false;
    const FdStackSolver fd(0.02, 0.02, pkg);
    const auto temps =
        fd.steadyJunctionTemperatures(fd.uniformPowerMap(50.0));
    double mean = 0.0;
    for (double t : temps)
        mean += t;
    mean /= static_cast<double>(temps.size());
    EXPECT_NEAR(mean - pkg.ambient, 50.0, 0.12 * 50.0);
}

TEST(FdStackSolver, ValidatesCompactAirSinkModel)
{
    // The validation the paper did not publish: the compact model's
    // spreader/sink strip treatment against an independent full-3-D
    // discretization, on a concentrated source where lateral
    // spreading is everything.
    PackageConfig pkg = PackageConfig::makeAirSink(1.0);
    pkg.secondary.enabled = false;

    const FdStackSolver fd(0.02, 0.02, pkg);
    const auto fd_temps = fd.steadyJunctionTemperatures(
        fd.centerSourcePowerMap(30.0, 0.005));
    const double fd_max =
        *std::max_element(fd_temps.begin(), fd_temps.end());
    double fd_mean = 0.0;
    for (double t : fd_temps)
        fd_mean += t;
    fd_mean /= static_cast<double>(fd_temps.size());

    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.005);
    std::vector<double> bp(fp.blockCount(), 0.0);
    bp[fp.blockIndex("hot")] = 30.0;
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 20;
    mo.gridNy = 20;
    const StackModel model(fp, pkg, mo);
    const auto cells = model.siliconCellTemperatures(
        model.steadyNodeTemperatures(bp));
    const double m_max =
        *std::max_element(cells.begin(), cells.end());
    double m_mean = 0.0;
    for (double t : cells)
        m_mean += t;
    m_mean /= static_cast<double>(cells.size());

    const double amb = pkg.ambient;
    EXPECT_NEAR(m_max - amb, fd_max - amb, 0.15 * (fd_max - amb));
    EXPECT_NEAR(m_mean - amb, fd_mean - amb,
                0.10 * (fd_mean - amb));
}

} // namespace
} // namespace irtherm
