/**
 * @file
 * Fig. 11 (the paper's table): EV6 steady-state block temperatures
 * under the four oil-flow directions.
 *
 * Paper: with flows that do not start at the top edge, IntReg (on
 * the top edge) is the hottest unit; with a top-to-bottom flow the
 * leading edge cools IntReg so effectively that Dcache (farther from
 * the leading edge) becomes the hottest unit instead. Exits non-zero
 * when the hottest units differ from that.
 */

#include <cstdio>
#include <vector>

#include "base/table.hh"
#include "base/units.hh"
#include "bench_common.hh"
#include "core/package.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"

using namespace irtherm;

int
main()
{
    bench::banner(
        "Fig. 11", "EV6 steady temperatures vs oil-flow direction",
        "hottest unit is IntReg for three directions but moves to "
        "Dcache for top-to-bottom flow");

    const Floorplan fp = floorplans::alphaEv6();
    const std::vector<double> powers = bench::ev6GccAveragePowers(fp);

    const FlowDirection dirs[4] = {
        FlowDirection::LeftToRight, FlowDirection::RightToLeft,
        FlowDirection::BottomToTop, FlowDirection::TopToBottom};

    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 32;
    mo.gridNy = 32;

    std::vector<std::vector<double>> temps;
    for (FlowDirection d : dirs) {
        const PackageConfig oil =
            PackageConfig::makeOilSilicon(10.0, d, 40.0);
        const StackModel model(fp, oil, mo);
        temps.push_back(model.steadyBlockTemperatures(powers));
    }

    TextTable table({"units", "left to right", "right to left",
                     "bottom to top", "top to bottom"});
    for (std::size_t b = 0; b < fp.blockCount(); ++b) {
        table.addRow(fp.block(b).name,
                     {toCelsius(temps[0][b]), toCelsius(temps[1][b]),
                      toCelsius(temps[2][b]), toCelsius(temps[3][b])});
    }
    table.print(std::cout);

    const char *paper[4] = {"IntReg", "IntReg", "IntReg", "Dcache"};
    bool holds = true;
    std::printf("\nhottest unit per direction:");
    for (std::size_t d = 0; d < 4; ++d) {
        std::size_t hot = 0;
        for (std::size_t b = 1; b < fp.blockCount(); ++b) {
            if (temps[d][b] > temps[d][hot])
                hot = b;
        }
        std::printf("  %s: %s (%.1f C)", flowDirectionName(dirs[d]),
                    fp.block(hot).name.c_str(),
                    toCelsius(temps[d][hot]));
        holds = holds && fp.block(hot).name == paper[d];
    }
    std::printf("\npaper: IntReg, IntReg, IntReg, Dcache\n");
    if (!holds) {
        std::printf("claim broken: the hottest units differ from "
                    "the paper's\n");
        return 1;
    }
    return 0;
}
