#include "core/simulator.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/span.hh"

namespace irtherm
{

ThermalSimulator::ThermalSimulator(const StackModel &model,
                                   const SimulatorOptions &opts_)
    : stack(model), opts(opts_), rise(model.nodeCount(), 0.0),
      nodePower(model.nodeCount(), 0.0),
      advancesMetric(obs::MetricsRegistry::global().counter(
          "core.simulator.advances")),
      advanceTimer(obs::MetricsRegistry::global().timer(
          "core.simulator.advance_time")),
      steadyInitTimer(obs::MetricsRegistry::global().timer(
          "core.simulator.steady_init_time")),
      simTimeGauge(obs::MetricsRegistry::global().gauge(
          "core.simulator.sim_time_s"))
{
    IntegratorKind kind = opts.integrator;
    if (kind == IntegratorKind::Auto) {
        kind = stack.options().mode == ModelMode::Block
                   ? IntegratorKind::AdaptiveRk4
                   : IntegratorKind::BackwardEuler;
    }
    if (kind == IntegratorKind::AdaptiveRk4) {
        rk4 = std::make_unique<Rk4Integrator>(
            stack.conductance(), stack.capacitance(), opts.rk4);
    } else {
        be = std::make_unique<BackwardEulerIntegrator>(
            stack.conductance(), stack.capacitance(),
            opts.implicitStep);
    }
}

void
ThermalSimulator::reset()
{
    std::fill(rise.begin(), rise.end(), 0.0);
    std::fill(nodePower.begin(), nodePower.end(), 0.0);
    now = 0.0;
}

void
ThermalSimulator::initializeSteady(
    const std::vector<double> &block_powers)
{
    obs::ScopedTimer initTimer(steadyInitTimer);
    obs::ScopedSpan span("core.sim.steady_init");
    span.attr("nodes", stack.nodeCount());
    const std::vector<double> abs_temps =
        stack.steadyNodeTemperatures(block_powers);
    IRTHERM_EVENT("core.steady_init",
                  {"nodes", abs_temps.size()});
    const double ambient = stack.packageConfig().ambient;
    for (std::size_t i = 0; i < rise.size(); ++i)
        rise[i] = abs_temps[i] - ambient;
    stack.nodePowerVector(block_powers, nodePower);
    now = 0.0;
}

void
ThermalSimulator::setBlockPowers(const std::vector<double> &block_powers)
{
    stack.nodePowerVector(block_powers, nodePower);
}

void
ThermalSimulator::advance(double dt)
{
    if (dt <= 0.0)
        fatal("ThermalSimulator::advance: non-positive dt");
    obs::ScopedTimer stepTimer(advanceTimer);
    obs::ScopedSpan span("core.sim.advance");
    span.attr("dt_s", dt).attr("integrator", rk4 ? "rk4" : "be");
    if (rk4) {
        rk4->advance(rise, nodePower, dt);
    } else {
        be->advance(rise, nodePower, dt);
    }
    now += dt;
    advancesMetric.add();
    simTimeGauge.set(now);
}

std::vector<double>
ThermalSimulator::blockTemperatures() const
{
    return stack.blockTemperatures(nodeTemperatures());
}

std::vector<double>
ThermalSimulator::nodeTemperatures() const
{
    std::vector<double> t = rise;
    const double ambient = stack.packageConfig().ambient;
    for (double &v : t)
        v += ambient;
    return t;
}

// Both scan the silicon slice of the rise and add ambient once:
// rounding is monotone, so max(r_i) + a rounds to max(r_i + a).

double
ThermalSimulator::maxSiliconTemperature() const
{
    const auto cells = rise.begin() + static_cast<std::ptrdiff_t>(
                                          stack.siliconNodeBegin());
    return *std::max_element(
               cells, cells + static_cast<std::ptrdiff_t>(
                                  stack.partitionCells())) +
           stack.packageConfig().ambient;
}

double
ThermalSimulator::minSiliconTemperature() const
{
    const auto cells = rise.begin() + static_cast<std::ptrdiff_t>(
                                          stack.siliconNodeBegin());
    return *std::min_element(
               cells, cells + static_cast<std::ptrdiff_t>(
                                  stack.partitionCells())) +
           stack.packageConfig().ambient;
}

} // namespace irtherm
