/**
 * @file
 * DTM policy study: how the package choice changes dynamic thermal
 * management (the paper's Sec. 5 in example form).
 *
 * A gcc-like power trace from the synthetic phase model (the one the
 * Fig. 12 and Sec. 5.1 benches use) replays through an EV6-like die
 * under AIR-SINK and OIL-SILICON at equal Rconv, with a closed-loop
 * DTM controller. Two policies (DVFS, fetch gating) are compared on
 * violation time and performance penalty.
 *
 * Run: ./dtm_study
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "dtm/policy.hh"
#include "floorplan/presets.hh"
#include "power/synthetic_cpu.hh"
#include "power/wattch_model.hh"

using namespace irtherm;

namespace
{

struct Outcome
{
    double violationFraction = 0.0;
    double penalty = 0.0;
    std::size_t engagements = 0;
};

Outcome
runPolicy(const StackModel &model, const PowerTrace &trace,
          DtmAction action, double threshold)
{
    const Floorplan &fp = model.floorplan();
    const std::size_t hot = fp.blockIndex("IntReg");

    DtmConfig cfg;
    cfg.action = action;
    cfg.triggerThreshold = threshold;
    cfg.samplingInterval = 60e-6;
    cfg.engagementDuration = 2e-3;
    DtmController ctrl(cfg, trace.unitNames());

    ThermalSimulator sim(model);
    sim.initializeSteady(trace.averagePowers());

    const double dt = trace.sampleInterval();
    const auto per_poll = static_cast<std::size_t>(
        std::max(1.0, std::round(cfg.samplingInterval / dt)));

    Outcome out;
    std::size_t violations = 0;
    DtmActuation act;
    for (std::size_t s = 0; s < trace.sampleCount(); ++s) {
        if (s % per_poll == 0) {
            act = ctrl.step(static_cast<double>(s) * dt,
                            sim.blockTemperatures()[hot]);
        }
        std::vector<double> p = trace.sample(s);
        for (std::size_t u = 0; u < p.size(); ++u) {
            p[u] *= act.voltageScale * act.voltageScale *
                    act.frequencyScale;
            if (!act.unitScale.empty())
                p[u] *= act.unitScale[u];
        }
        sim.setBlockPowers(p);
        sim.advance(dt);
        if (sim.blockTemperatures()[hot] > threshold)
            ++violations;
    }
    out.violationFraction =
        static_cast<double>(violations) /
        static_cast<double>(trace.sampleCount());
    out.penalty = ctrl.performancePenalty(
        static_cast<double>(trace.sampleCount()) * dt);
    out.engagements = ctrl.engagements();
    return out;
}

} // namespace

int
main()
{
    // Workload: the synthetic phase model running gcc.
    const Floorplan fp = floorplans::alphaEv6();
    const WattchPowerModel pm = WattchPowerModel::alphaEv6();
    SyntheticCpu cpu(pm, workloads::gcc());
    const PowerTrace trace = cpu.generate(20000).reorderedFor(fp);
    std::printf("synthetic gcc: %.1f W average\n\n",
                trace.averageTotalPower());

    setQuiet(true);
    const double v = oilVelocityForResistance(
        fluids::irTransparentOil(), fp.width(),
        fp.width() * fp.height(), 0.3);
    const StackModel air(fp, PackageConfig::makeAirSink(0.3, 45.0));
    const StackModel oil(
        fp, PackageConfig::makeOilSilicon(
                v, FlowDirection::LeftToRight, 45.0));
    setQuiet(false);

    // Threshold: the hot block's open-loop 90th percentile, so the
    // closed loop sees genuine (but survivable) emergencies.
    const std::size_t hot = fp.blockIndex("IntReg");
    auto p90_threshold = [&](const StackModel &model) {
        ThermalSimulator sim(model);
        sim.initializeSteady(trace.averagePowers());
        std::vector<double> temps;
        for (std::size_t s = 0; s < trace.sampleCount(); ++s) {
            sim.setBlockPowers(trace.sample(s));
            sim.advance(trace.sampleInterval());
            temps.push_back(sim.blockTemperatures()[hot]);
        }
        std::sort(temps.begin(), temps.end());
        return temps[temps.size() * 9 / 10];
    };
    const double air_thr = p90_threshold(air);
    const double oil_thr = p90_threshold(oil);
    std::printf("thresholds (open-loop p90 of IntReg): AIR %.1f C, "
                "OIL %.1f C\n\n",
                toCelsius(air_thr), toCelsius(oil_thr));

    TextTable table({"package / policy", "violation %", "penalty %",
                     "engagements"});
    for (DtmAction action : {DtmAction::Dvfs, DtmAction::FetchGate}) {
        const char *pname =
            action == DtmAction::Dvfs ? "DVFS 0.5x" : "fetch gate 0.5";
        const Outcome a = runPolicy(air, trace, action, air_thr);
        const Outcome o = runPolicy(oil, trace, action, oil_thr);
        table.addRow(std::string("AIR-SINK / ") + pname,
                     {100.0 * a.violationFraction, 100.0 * a.penalty,
                      static_cast<double>(a.engagements)});
        table.addRow(std::string("OIL-SILICON / ") + pname,
                     {100.0 * o.violationFraction, 100.0 * o.penalty,
                      static_cast<double>(o.engagements)});
    }
    table.print(std::cout);

    std::printf("\nTakeaway (paper Sec. 5.1): the same policy tuned "
                "on the IR rig's thermal behaviour would be "
                "mis-tuned for the shipping heatsink package.\n");
    return 0;
}
