/**
 * @file
 * Sec. 5.4: sensor placement under flow direction, and the power
 * reverse-engineering artifact.
 *
 * Paper: (1) placing a sensor from a top-to-bottom-flow IR map puts
 * it at Dcache, which misses IntReg — the real hot spot in normal
 * (AIR-SINK) operation; (2) IR power extraction that ignores the
 * flow direction credits downstream cores with phantom power
 * (Hamann et al. correct for this).
 *
 * Gate: exits 1 with a "claim broken:" line unless the rig's sensor
 * sits in Dcache while the deployment's hottest block is IntReg, the
 * blind estimates rise strictly downstream across the true power,
 * and every direction-aware estimate is within 0.01 W of it. The
 * size of the sensor's miss is printed, not gated: the claim is
 * which unit it watches.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/inversion.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "bench_common.hh"
#include "core/package.hh"
#include "core/stack_model.hh"
#include "dtm/sensor.hh"
#include "floorplan/presets.hh"

using namespace irtherm;

namespace
{

/** Name of the block containing a point. */
std::string
blockAt(const Floorplan &fp, double x, double y)
{
    for (const Block &b : fp.blocks()) {
        if (x >= b.x && x < b.right() && y >= b.y && y < b.top())
            return b.name;
    }
    return "?";
}

} // namespace

int
main()
{
    bench::banner(
        "Sec. 5.4", "flow-direction-aware placement and IR power "
        "reverse-engineering",
        "IR-guided sensor placement can watch the wrong unit; "
        "direction-blind inversion over-credits downstream cores");

    // ---- Part 1: sensor placement transferred across configs. ----
    const Floorplan fp = floorplans::alphaEv6();
    const std::vector<double> powers = bench::ev6GccAveragePowers(fp);
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 32;
    mo.gridNy = 32;

    const StackModel ir_rig(
        fp,
        PackageConfig::makeOilSilicon(10.0,
                                      FlowDirection::TopToBottom,
                                      40.0),
        mo);
    const StackModel deployment(
        fp, PackageConfig::makeAirSink(1.0, 40.0), mo);

    const auto ir_nodes = ir_rig.steadyNodeTemperatures(powers);
    const auto dep_nodes = deployment.steadyNodeTemperatures(powers);
    const auto ir_cells = ir_rig.siliconCellTemperatures(ir_nodes);
    const auto dep_cells =
        deployment.siliconCellTemperatures(dep_nodes);

    // One sensor, placed on the IR rig's hottest location.
    const auto sensors = placement::hottestGuided(
        ir_cells, 32, 32, fp.width(), fp.height(), 1, 0.002);
    const std::string watched =
        blockAt(fp, sensors[0].x, sensors[0].y);

    // True hot spot in deployment.
    const auto it =
        std::max_element(dep_cells.begin(), dep_cells.end());
    const auto idx = static_cast<std::size_t>(it - dep_cells.begin());
    const double hx =
        (static_cast<double>(idx % 32) + 0.5) * fp.width() / 32.0;
    const double hy =
        (static_cast<double>(idx / 32) + 0.5) * fp.height() / 32.0;
    const std::string true_hot = blockAt(fp, hx, hy);

    const double miss =
        worstCaseSensingError(deployment, dep_nodes, sensors);
    std::printf("IR rig (oil, top-to-bottom) places the sensor at: "
                "%s\n",
                watched.c_str());
    std::printf("deployment (AIR-SINK) true hottest block: %s\n",
                true_hot.c_str());
    std::printf("worst-case miss of that sensor in deployment: "
                "%.1f C (paper: the Dcache-placed sensor misses "
                "IntReg emergencies)\n\n",
                miss);

    // ---- Part 2: multi-core power reverse-engineering. ----------
    const Floorplan cores = floorplans::multicoreChip(4, 1, 0.02,
                                                      0.005);
    PackageConfig directional = PackageConfig::makeOilSilicon(
        10.0, FlowDirection::LeftToRight, 40.0);
    PackageConfig blind = directional;
    blind.oilFlow.directional = false;

    ModelOptions cm;
    cm.mode = ModelMode::Grid;
    cm.gridNx = 32;
    cm.gridNy = 8;
    const StackModel truth_model(cores, directional, cm);
    const StackModel blind_model(cores, blind, cm);

    const double coreWatts = 5.0;
    const std::vector<double> truth(cores.blockCount(), coreWatts);
    const auto measured =
        truth_model.steadyBlockTemperatures(truth);

    PowerInversion blind_inv(blind_model);
    PowerInversion aware_inv(truth_model);
    const auto est_blind = blind_inv.estimatePowers(measured);
    const auto est_aware = aware_inv.estimatePowers(measured);

    TextTable table({"core (upstream -> downstream)", "true P (W)",
                     "measured T (C)", "blind estimate (W)",
                     "direction-aware (W)"});
    for (std::size_t b = 0; b < cores.blockCount(); ++b) {
        table.addRow(cores.block(b).name,
                     {truth[b], toCelsius(measured[b]), est_blind[b],
                      est_aware[b]});
    }
    table.print(std::cout);

    std::printf("\npaper: equal-power cores look hotter downstream; "
                "a direction-blind inversion converts that into "
                "phantom power (Hamann et al. correct for the flow "
                "direction)\n");

    bool holds = true;
    const auto broken = [&holds](const char *what) {
        std::printf("claim broken: %s\n", what);
        holds = false;
    };
    if (watched != "Dcache")
        broken("the IR rig's sensor does not sit in Dcache");
    if (true_hot != "IntReg")
        broken("the deployment's hottest block is not IntReg");
    bool rising = est_blind.front() < coreWatts &&
                  est_blind.back() > coreWatts;
    for (std::size_t b = 1; b < est_blind.size(); ++b)
        rising = rising && est_blind[b] > est_blind[b - 1];
    if (!rising)
        broken("the direction-blind estimates do not rise strictly "
               "from upstream to downstream across the true power");
    if (std::any_of(est_aware.begin(), est_aware.end(),
                    [coreWatts](double p) {
                        return std::abs(p - coreWatts) > 0.01;
                    }))
        broken("a direction-aware estimate is more than 0.01 W off "
               "the true power");
    return holds ? 0 : 1;
}
