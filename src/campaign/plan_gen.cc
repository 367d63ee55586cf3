#include "campaign/plan_gen.hh"

#include <algorithm>
#include <vector>

namespace irtherm::campaign
{

namespace
{

/** Pick @p k distinct entries of @p pool, preserving pool order so
 *  the axis value list (and hence the plan JSON) is canonical. */
std::vector<const char *>
pickDistinct(SplitMix64 &rng, std::vector<const char *> pool,
             std::size_t k)
{
    std::vector<const char *> picked;
    std::vector<bool> taken(pool.size(), false);
    k = std::min(k, pool.size());
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = rng.index(pool.size());
        while (taken[j])
            j = (j + 1) % pool.size();
        taken[j] = true;
    }
    for (std::size_t j = 0; j < pool.size(); ++j) {
        if (taken[j])
            picked.push_back(pool[j]);
    }
    return picked;
}

std::string
joinValues(const std::vector<const char *> &values)
{
    std::string out;
    for (const char *v : values) {
        if (!out.empty())
            out += ", ";
        out += v;
    }
    return out;
}

} // namespace

GeneratedPlan
generatePlan(SplitMix64 &rng, bool fleetSafe)
{
    // Candidate values are fixed strings, spliced verbatim into the
    // plan JSON: no double formatting anywhere, so regeneration is
    // byte-exact by construction.
    static const std::vector<const char *> kGridNx = {
        "8", "10", "12", "14", "16", "20", "24", "28", "32"};
    static const std::vector<const char *> kGridNy = {"8", "12",
                                                      "16"};
    static const std::vector<const char *> kPowerUniform = {
        "0.3", "0.45", "0.6", "0.75", "0.9"};
    static const std::vector<const char *> kBlockWatts = {
        "1.0", "2.0", "3.5", "5.0"};
    static const std::vector<const char *> kPreconditioners = {"jacobi", "mg"};

    const bool ev6 = rng.weightedIndex({0.7, 0.3}) == 0;
    const char *floorplan = ev6 ? "preset:ev6" : "preset:athlon";
    const char *gridNy = kGridNy[rng.index(kGridNy.size())];
    const char *powerUniform =
        kPowerUniform[rng.index(kPowerUniform.size())];

    std::string base = "{\"floorplan\": \"";
    base += floorplan;
    base += "\",\n           \"mode\": \"steady\",\n";
    base += "           \"power.uniform\": ";
    base += powerUniform;
    base += ",\n";
    // ~half the plans pin a preconditioner; the rest use the
    // solver's own choice.
    if (rng.chance(0.5)) {
        base += "           \"solver.preconditioner\": \"";
        base += kPreconditioners[rng.index(kPreconditioners.size())];
        base += "\",\n";
    }
    if (!fleetSafe && rng.chance(0.25))
        base += "           \"solver.superposition\": false,\n";
    base += "           \"config\": {\"model_mode\": \"grid\", "
            "\"grid_ny\": ";
    base += gridNy;
    base += "}}";

    // Axes. config.grid_nx is always present (distinct stack hash per
    // value); fleet-safe plans may add a second config axis, free
    // plans may add power axes instead.
    std::vector<std::pair<std::string, std::string>> axes;
    std::size_t jobs = 1;

    const std::size_t nxCount =
        static_cast<std::size_t>(rng.range(fleetSafe ? 3 : 2, 5));
    const auto nxValues = pickDistinct(rng, kGridNx, nxCount);
    axes.emplace_back("config.grid_nx", joinValues(nxValues));
    jobs *= nxValues.size();

    if (fleetSafe) {
        if (rng.chance(0.4)) {
            const auto nyValues = pickDistinct(rng, kGridNy, 2);
            axes.emplace_back("config.grid_ny",
                              joinValues(nyValues));
            jobs *= nyValues.size();
        }
    } else {
        if (rng.chance(0.5)) {
            const auto pValues = pickDistinct(
                rng, kPowerUniform,
                static_cast<std::size_t>(rng.range(2, 3)));
            axes.emplace_back("power.uniform", joinValues(pValues));
            jobs *= pValues.size();
        }
        // Block-power axis only on ev6 (IntReg is an ev6 unit) and
        // only while the cross product stays campaign-sized.
        if (ev6 && jobs <= 8 && rng.chance(0.3)) {
            const auto wValues = pickDistinct(rng, kBlockWatts, 2);
            axes.emplace_back("power.block.IntReg",
                              joinValues(wValues));
            jobs *= wValues.size();
        }
    }

    std::string json = "{\"name\": \"campaign\",\n \"base\": ";
    json += base;
    json += ",\n \"axes\": {";
    for (std::size_t i = 0; i < axes.size(); ++i) {
        if (i)
            json += ",\n          ";
        json += "\"" + axes[i].first + "\": [" + axes[i].second +
                "]";
    }
    json += "}}\n";

    GeneratedPlan out;
    out.json = json;
    out.plan = sweep::SweepPlan::parse(json, "campaign plan");
    out.fleetSafe = fleetSafe;
    return out;
}

} // namespace irtherm::campaign
