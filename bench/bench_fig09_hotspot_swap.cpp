/**
 * @file
 * Fig. 9: transient hot-spot location swap after a power switch.
 *
 * Paper: from steady state, IntReg dissipates 2 W for 10 ms (FPMap
 * idle); then IntReg turns off and FPMap dissipates 2 W. At 14 ms
 * (4 ms after the switch) AIR-SINK's hottest of the two is already
 * FPMap, while under OIL-SILICON IntReg is still the hottest —
 * AIR-SINK's short-term response is that much faster.
 */

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

namespace
{

struct SwapTrace
{
    std::vector<double> times;   ///< seconds
    std::vector<double> intreg;  ///< rise above ambient (K)
    std::vector<double> fpmap;
};

SwapTrace
runSwap(const StackModel &model)
{
    const Floorplan &fp = model.floorplan();
    const std::size_t intreg = fp.blockIndex("IntReg");
    const std::size_t fpmap = fp.blockIndex("FPMap");
    const double ambient = model.packageConfig().ambient;

    std::vector<double> phase1(fp.blockCount(), 0.0);
    phase1[intreg] = 2.0;
    std::vector<double> phase2(fp.blockCount(), 0.0);
    phase2[fpmap] = 2.0;

    ThermalSimulator sim(model);
    sim.initializeSteady(phase1);

    // 10 ms of phase 1, then phase 2 until well past any crossover.
    SwapTrace out;
    const double dt = 5e-4;
    for (double t = dt; t <= 0.5 + 1e-12; t += dt) {
        sim.setBlockPowers(t <= 0.010 + 1e-12 ? phase1 : phase2);
        sim.advance(dt);
        const auto bt = sim.blockTemperatures();
        out.times.push_back(t);
        out.intreg.push_back(bt[intreg] - ambient);
        out.fpmap.push_back(bt[fpmap] - ambient);
    }
    return out;
}

/** First time after the 10 ms switch at which FPMap beats IntReg. */
double
crossoverTime(const SwapTrace &t)
{
    for (std::size_t i = 0; i < t.times.size(); ++i) {
        if (t.times[i] > 0.010 && t.fpmap[i] > t.intreg[i])
            return t.times[i];
    }
    return -1.0;
}

} // namespace

int
main()
{
    bench::banner(
        "Fig. 9", "hot-spot swap: IntReg 2 W -> FPMap 2 W at 10 ms",
        "at 14 ms AIR-SINK's hotter unit is FPMap; OIL-SILICON's is "
        "still IntReg");

    const Floorplan fp = floorplans::alphaEv6();
    const StackModel air_model(
        fp, PackageConfig::makeAirSink(1.0, 45.0));
    const StackModel oil_model(
        fp, PackageConfig::makeOilSilicon(
                10.0, FlowDirection::LeftToRight, 45.0));

    const SwapTrace air = runSwap(air_model);
    const SwapTrace oil = runSwap(oil_model);

    TextTable table({"time (ms)", "AIR IntReg", "AIR FPMap",
                     "OIL IntReg", "OIL FPMap"});
    for (std::size_t i = 1; i < air.times.size() &&
                            air.times[i] <= 0.020 + 1e-9;
         i += 2) {
        table.addRow(formatFixed(air.times[i] * 1e3, 1),
                     {air.intreg[i], air.fpmap[i], oil.intreg[i],
                      oil.fpmap[i]});
    }
    std::printf("(temperature rise above ambient, K; first 20 ms "
                "shown)\n");
    table.print(std::cout);

    const double air_cross = crossoverTime(air);
    const double oil_cross = crossoverTime(oil);
    std::printf("\nhot-spot crossover after the 10 ms switch:\n");
    std::printf("  AIR-SINK: %.1f ms (paper: ~4 ms after the switch "
                "— milliseconds; our reconstructed blocks are larger "
                "than the real EV6's, stretching the local RC)\n",
                air_cross > 0.0 ? (air_cross - 0.010) * 1e3 : -1.0);
    if (oil_cross > 0.0) {
        std::printf("  OIL-SILICON: %.0f ms — several times later "
                    "(paper: IntReg still hottest at 14 ms)\n",
                    (oil_cross - 0.010) * 1e3);
    } else {
        std::printf("  OIL-SILICON: no crossover within 490 ms of "
                    "the switch (paper: IntReg still hottest)\n");
    }

    std::size_t at14ms = 0;
    while (oil.times[at14ms] < 0.014 - 1e-9)
        ++at14ms;
    bool holds = true;
    const auto broken = [&holds](const char *what) {
        std::printf("claim broken: %s\n", what);
        holds = false;
    };
    if (!(air_cross > 0.0))
        broken("AIR-SINK's hot spot never moves to FPMap");
    if (!(oil_cross < 0.0 ||
          oil_cross - 0.010 >= 2.0 * (air_cross - 0.010)))
        broken("OIL-SILICON's crossover comes less than 2x as long "
               "after the switch as AIR-SINK's");
    if (!(oil.intreg[at14ms] > oil.fpmap[at14ms]))
        broken("OIL-SILICON's hotter unit at 14 ms is not IntReg");
    return holds ? 0 : 1;
}
