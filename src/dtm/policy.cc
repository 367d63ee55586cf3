#include "dtm/policy.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{

namespace
{

/** Process-wide DTM telemetry handles (shared by all controllers). */
struct DtmMetrics
{
    obs::Counter &steps;
    obs::Counter &engagements;
    obs::Gauge &dutyCycle;

    static DtmMetrics &
    instance()
    {
        static DtmMetrics m{
            obs::MetricsRegistry::global().counter(
                "dtm.controller.steps"),
            obs::MetricsRegistry::global().counter(
                "dtm.controller.engagements"),
            obs::MetricsRegistry::global().gauge(
                "dtm.controller.duty_cycle"),
        };
        return m;
    }
};

} // namespace

DtmController::DtmController(const DtmConfig &cfg_,
                             const std::vector<std::string> &unit_names)
    : cfg(cfg_), units(unit_names)
{
    if (cfg.samplingInterval <= 0.0)
        fatal("DtmController: non-positive sampling interval");
    if (cfg.engagementDuration <= 0.0)
        fatal("DtmController: non-positive engagement duration");
    if (cfg.action == DtmAction::Dvfs &&
        (cfg.dvfsFrequencyScale <= 0.0 || cfg.dvfsFrequencyScale > 1.0))
        fatal("DtmController: DVFS scale must be in (0, 1]");
    if (cfg.action == DtmAction::FetchGate &&
        (cfg.fetchDutyCycle <= 0.0 || cfg.fetchDutyCycle > 1.0))
        fatal("DtmController: fetch duty cycle must be in (0, 1]");

    gatedScale.assign(units.size(), 1.0);
    if (cfg.action == DtmAction::FetchGate) {
        bool any = false;
        for (std::size_t i = 0; i < units.size(); ++i) {
            const bool gated =
                std::find(cfg.gatedUnits.begin(), cfg.gatedUnits.end(),
                          units[i]) != cfg.gatedUnits.end();
            if (gated) {
                gatedScale[i] = cfg.fetchDutyCycle;
                any = true;
            } else {
                // Downstream units starve roughly with the duty cycle;
                // they keep half their slack as residual activity.
                gatedScale[i] =
                    0.5 * (1.0 + cfg.fetchDutyCycle);
            }
        }
        if (!any)
            warn("DtmController: no trace unit matches gatedUnits");
    }
}

DtmActuation
DtmController::step(double now, double sensed_max_temp)
{
    if (!first && now < lastStepTime)
        fatal("DtmController::step: time moved backwards");
    if (!first && engagedNow)
        totalEngaged += now - lastStepTime;
    lastStepTime = now;
    first = false;

    DtmMetrics &m = DtmMetrics::instance();
    m.steps.add();

    obs::ScopedSpan span("dtm.decision");
    span.attr("sim_time_s", now).attr("temp_k", sensed_max_temp);
    const bool wasEngaged = engagedNow;
    const bool hot = sensed_max_temp > cfg.triggerThreshold;
    if (engagedNow) {
        // Stay engaged for the full duration, and keep extending it
        // while the die remains hot.
        if (hot) {
            engageUntil = now + cfg.engagementDuration;
        } else if (now >= engageUntil) {
            engagedNow = false;
            IRTHERM_EVENT("dtm.disengage", {"sim_time_s", now},
                          {"temp_k", sensed_max_temp});
        }
    } else if (hot && cfg.action != DtmAction::None) {
        engagedNow = true;
        engageUntil = now + cfg.engagementDuration;
        ++engageCount;
        m.engagements.add();
        IRTHERM_EVENT("dtm.engage", {"sim_time_s", now},
                      {"temp_k", sensed_max_temp},
                      {"threshold_k", cfg.triggerThreshold});
    }
    if (now > 0.0)
        m.dutyCycle.set(totalEngaged / now);
    span.attr("engaged", engagedNow ? "yes" : "no")
        .attr("transition", engagedNow == wasEngaged ? "hold"
                            : engagedNow             ? "engage"
                                                     : "disengage");

    DtmActuation act;
    if (engagedNow) {
        switch (cfg.action) {
          case DtmAction::Dvfs:
            act.frequencyScale = cfg.dvfsFrequencyScale;
            // Voltage tracks frequency (linear V-f relation).
            act.voltageScale = cfg.dvfsFrequencyScale;
            break;
          case DtmAction::FetchGate:
            act.unitScale = gatedScale;
            break;
          case DtmAction::GlobalGate:
            act.frequencyScale = 1e-3; // clock effectively stopped
            break;
          case DtmAction::None:
            break;
        }
    }
    return act;
}

double
DtmController::performancePenalty(double total_time) const
{
    if (total_time <= 0.0)
        fatal("performancePenalty: non-positive total time");
    double rate = 0.0;
    switch (cfg.action) {
      case DtmAction::Dvfs:
        rate = 1.0 / cfg.dvfsFrequencyScale - 1.0;
        break;
      case DtmAction::FetchGate:
        rate = 1.0 / cfg.fetchDutyCycle - 1.0;
        break;
      case DtmAction::GlobalGate:
        rate = 1e3;
        break;
      case DtmAction::None:
        return 0.0;
    }
    return rate * totalEngaged / total_time;
}

} // namespace irtherm
