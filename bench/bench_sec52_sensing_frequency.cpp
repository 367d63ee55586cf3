/**
 * @file
 * Sec. 5.2: required thermal sensing frequency.
 *
 * Paper: in both configurations IntReg can move ~5 C in 3 ms; for a
 * 0.1 C resolution that bounds the sampling interval at ~60 us. At
 * higher oil speeds (cooler peaks) OIL-SILICON's slower rate would
 * allow less frequent sensing. That last sub-claim does not
 * reproduce: here the faster R = 0.15 flow changes slightly faster
 * than R = 0.3 and needs slightly more frequent sensing.
 */

#include <cstdio>
#include <vector>

#include "analysis/stats.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "bench_common.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "power/synthetic_cpu.hh"
#include "power/wattch_model.hh"

using namespace irtherm;

namespace
{

/** Max |dT/dt| of IntReg over a gcc trace replay (K/s). */
double
maxIntRegRate(const StackModel &model, const PowerTrace &trace)
{
    const Floorplan &fp = model.floorplan();
    const std::size_t intreg = fp.blockIndex("IntReg");
    ThermalSimulator sim(model);
    sim.initializeSteady(trace.averagePowers());
    std::vector<double> temps;
    for (std::size_t s = 0; s < trace.sampleCount(); ++s) {
        sim.setBlockPowers(trace.sample(s));
        sim.advance(trace.sampleInterval());
        temps.push_back(sim.blockTemperatures()[intreg]);
    }
    return maxRate(temps, trace.sampleInterval());
}

} // namespace

int
main()
{
    bench::banner(
        "Sec. 5.2", "thermal sensing frequency bound",
        "~5 C per 3 ms in both configs -> <= ~60 us sampling for "
        "0.1 C resolution; faster oil flow relaxes the bound");

    const Floorplan fp = floorplans::alphaEv6();
    const WattchPowerModel pm = WattchPowerModel::alphaEv6();
    SyntheticCpu cpu(pm, workloads::gcc());
    const PowerTrace trace = cpu.generate(10000).reorderedFor(fp);

    const double resolution = 0.1; // C

    setQuiet(true);
    const double v03 = oilVelocityForResistance(
        fluids::irTransparentOil(), fp.width(),
        fp.width() * fp.height(), 0.3);
    const double v015 = oilVelocityForResistance(
        fluids::irTransparentOil(), fp.width(),
        fp.width() * fp.height(), 0.15);

    struct Config
    {
        const char *name;
        StackModel model;
    };
    std::vector<Config> configs;
    configs.push_back(
        {"AIR-SINK R=0.3",
         StackModel(fp, PackageConfig::makeAirSink(0.3, 45.0))});
    configs.push_back(
        {"OIL-SILICON R=0.3",
         StackModel(fp, PackageConfig::makeOilSilicon(
                            v03, FlowDirection::LeftToRight, 45.0))});
    configs.push_back(
        {"OIL-SILICON R=0.15 (faster flow)",
         StackModel(fp, PackageConfig::makeOilSilicon(
                            v015, FlowDirection::LeftToRight, 45.0))});
    setQuiet(false);

    TextTable table({"configuration", "max dT/dt (C/ms)",
                     "sampling interval for 0.1 C (us)"});
    std::vector<double> intervals; // us, one per configuration
    for (const Config &c : configs) {
        const double rate = maxIntRegRate(c.model, trace);
        intervals.push_back(resolution / rate * 1e6);
        table.addRow(c.name, {rate * 1e-3, intervals.back()});
    }
    table.print(std::cout);

    std::printf("\npaper: ~60 us for both at R = 0.3 (holds); its "
                "claim that a faster oil flow relaxes the bound does "
                "not reproduce: R = 0.15 changes slightly faster and "
                "needs slightly more frequent sensing\n");

    bool holds = true;
    const auto broken = [&holds](const char *what) {
        std::printf("claim broken: %s\n", what);
        holds = false;
    };
    const auto near60us = [](double us) {
        return us >= 50.0 && us <= 70.0;
    };
    if (!near60us(intervals[0]))
        broken("AIR-SINK's R = 0.3 sampling interval is outside "
               "50-70 us");
    if (!near60us(intervals[1]))
        broken("OIL-SILICON's R = 0.3 sampling interval is outside "
               "50-70 us");
    return holds ? 0 : 1;
}
