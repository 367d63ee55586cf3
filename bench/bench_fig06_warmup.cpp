/**
 * @file
 * Fig. 6: warm-up transients of the hot and cool blocks under
 * AIR-SINK and OIL-SILICON at equal Rconv = 1.0 K/W.
 *
 * Paper: one hot block at 2 W/mm^2 for ~6 s from ambient (~22 C).
 * OIL-SILICON settles much faster (small oil capacitance), its hot
 * spot is far hotter in steady state (137 vs 63 C in the paper), its
 * coolest block is cooler (42 vs 55 C), the chip averages are close,
 * and AIR-SINK shows an instant initial jump (two time scales).
 *
 * Claim gate (`ctest -L paper`): exits 1 when the shape breaks —
 * OIL's hot spot must reach 80% of its steady rise by 2 s while
 * AIR's stays at or below 50%, OIL's steady hot spot must sit 30 C
 * above AIR's with its coolest cell below AIR's, and AIR must jump
 * 5 C within 10 ms. The averages are not gated (they order opposite
 * to the paper's; EXPERIMENTS.md, divergence 2).
 */

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

using namespace irtherm;

int
main()
{
    bench::banner(
        "Fig. 6", "warm-up transients at equal Rconv = 1.0 K/W",
        "OIL settles in ~2 s, AIR still warming at 6 s; OIL hot spot "
        "far hotter, cool block cooler, averages close; AIR shows an "
        "instant initial jump");

    const Floorplan fp = floorplans::hotBlockChip(
        0.02, 0.02, 0.0042, 0.0042, 0.01, 0.01);
    std::vector<double> powers(fp.blockCount(), 0.0);
    powers[fp.blockIndex("hot")] = 2.0e6 * 0.0042 * 0.0042; // 35.3 W

    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 16;
    mo.gridNy = 16;
    SimulatorOptions so;
    so.implicitStep = 1e-3;

    const PackageConfig air = PackageConfig::makeAirSink(1.0, 22.0);
    const PackageConfig oil = PackageConfig::makeOilSilicon(
        10.0, FlowDirection::LeftToRight, 22.0);

    const StackModel air_model(fp, air, mo);
    const StackModel oil_model(fp, oil, mo);
    ThermalSimulator air_sim(air_model, so);
    ThermalSimulator oil_sim(oil_model, so);
    air_sim.setBlockPowers(powers);
    oil_sim.setBlockPowers(powers);

    TextTable table({"time (s)", "AIR hot (C)", "AIR cool (C)",
                     "OIL hot (C)", "OIL cool (C)"});
    table.addRow("0.00", {22.0, 22.0, 22.0, 22.0});
    const double sample = 0.25;
    double air_hot_2s = 0.0;
    double oil_hot_2s = 0.0;
    for (double t = sample; t <= 6.0 + 1e-9; t += sample) {
        air_sim.advance(sample);
        oil_sim.advance(sample);
        if (std::abs(t - 2.0) < 1e-9) {
            air_hot_2s = toCelsius(air_sim.maxSiliconTemperature());
            oil_hot_2s = toCelsius(oil_sim.maxSiliconTemperature());
        }
        table.addRow(
            formatFixed(t, 2),
            {toCelsius(air_sim.maxSiliconTemperature()),
             toCelsius(air_sim.minSiliconTemperature()),
             toCelsius(oil_sim.maxSiliconTemperature()),
             toCelsius(oil_sim.minSiliconTemperature())});
    }
    table.print(std::cout);

    // The initial jump: AIR-SINK hot-spot rise after 10 ms.
    ThermalSimulator jump(air_model, so);
    jump.setBlockPowers(powers);
    jump.advance(0.010);
    const double air_jump = toCelsius(jump.maxSiliconTemperature()) - 22.0;
    std::printf("\nAIR-SINK initial jump: +%.1f C within 10 ms "
                "(paper: visible instant jump, then a slow ramp)\n",
                air_jump);

    // Steady-state summary.
    const auto air_nodes = air_model.steadyNodeTemperatures(powers);
    const auto oil_nodes = oil_model.steadyNodeTemperatures(powers);
    const auto air_cells = air_model.siliconCellTemperatures(air_nodes);
    const auto oil_cells = oil_model.siliconCellTemperatures(oil_nodes);

    TextTable steady({"steady metric", "AIR-SINK (C)",
                      "OIL-SILICON (C)", "paper AIR", "paper OIL"});
    steady.addRow("hot spot",
                  {toCelsius(bench::maxOf(air_cells)),
                   toCelsius(bench::maxOf(oil_cells)), 63.0, 137.0});
    steady.addRow("coolest",
                  {toCelsius(bench::minOf(air_cells)),
                   toCelsius(bench::minOf(oil_cells)), 55.0, 42.0});
    steady.addRow("average",
                  {toCelsius(bench::meanOf(air_cells)),
                   toCelsius(bench::meanOf(oil_cells)), 56.0, 62.0});
    std::printf("\n");
    steady.print(std::cout);

    const double air_hot = toCelsius(bench::maxOf(air_cells));
    const double oil_hot = toCelsius(bench::maxOf(oil_cells));
    bool holds = true;
    const auto broken = [&holds](const char *what) {
        std::printf("claim broken: %s\n", what);
        holds = false;
    };
    if (!((oil_hot_2s - 22.0) >= 0.8 * (oil_hot - 22.0)))
        broken("OIL-SILICON's hot spot is below 80% of its steady rise "
               "at 2 s");
    if (!((air_hot_2s - 22.0) <= 0.5 * (air_hot - 22.0)))
        broken("AIR-SINK's hot spot is above 50% of its steady rise "
               "at 2 s");
    if (!(oil_hot - air_hot >= 30.0))
        broken("OIL-SILICON's steady hot spot is less than 30 C above "
               "AIR-SINK's");
    if (!(bench::minOf(oil_cells) < bench::minOf(air_cells)))
        broken("OIL-SILICON's coolest cell is not cooler than "
               "AIR-SINK's");
    if (!(air_jump >= 5.0))
        broken("AIR-SINK jumps less than 5 C within 10 ms");
    return holds ? 0 : 1;
}
