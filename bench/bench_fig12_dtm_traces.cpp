/**
 * @file
 * Fig. 12: simulated temperature traces of the EV6-like die running
 * gcc under both packages at equal Rconv = 0.3 K/W, ambient 45 C.
 *
 * Paper setup: SimpleScalar+Wattch power samples every 10 K cycles
 * (~3.3 us), 40 000 samples, top-five hottest blocks plotted.
 * Claims: (1) AIR-SINK heat-up/cool-down phases last ~3 ms, OIL's
 * much longer than 15 ms; (2) the hottest unit is more distinct
 * under AIR-SINK (IntReg) while OIL's neighbours blur together;
 * (3) OIL's absolute temperatures are far higher at the same Rconv;
 * (4) chip averages remain comparable (cool L2 balances hot core).
 */

#include <cstdio>
#include <cmath>
#include <map>
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

struct TraceResult
{
    /** Per tracked block: temperature samples (C). */
    std::map<std::string, std::vector<double>> temps;
    std::vector<double> chip_mean;
    double sampleInterval = 0.0;
};

TraceResult
replay(const StackModel &model, const PowerTrace &trace,
       const std::vector<std::string> &tracked)
{
    const Floorplan &fp = model.floorplan();
    ThermalSimulator sim(model);
    sim.initializeSteady(trace.averagePowers());

    TraceResult out;
    out.sampleInterval = trace.sampleInterval();
    for (const std::string &name : tracked)
        out.temps[name] = {};

    for (std::size_t s = 0; s < trace.sampleCount(); ++s) {
        sim.setBlockPowers(trace.sample(s));
        sim.advance(trace.sampleInterval());
        const auto bt = sim.blockTemperatures();
        for (const std::string &name : tracked) {
            out.temps[name].push_back(
                toCelsius(bt[fp.blockIndex(name)]));
        }
        out.chip_mean.push_back(toCelsius(bench::meanOf(bt)));
    }
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "Fig. 12", "EV6 gcc temperature traces, Rconv = 0.3 K/W both",
        "AIR phases ~3 ms vs OIL >> 15 ms; IntReg distinctly hottest "
        "under AIR; OIL much hotter overall; averages comparable");

    const Floorplan fp = floorplans::alphaEv6();
    const WattchPowerModel pm = WattchPowerModel::alphaEv6();
    SyntheticCpu cpu(pm, workloads::gcc());
    const std::size_t samples = 40000;
    const PowerTrace trace =
        cpu.generate(samples).reorderedFor(fp);
    std::printf("trace: %zu samples at %.2f us, average total power "
                "%.1f W\n\n",
                trace.sampleCount(), trace.sampleInterval() * 1e6,
                trace.averageTotalPower());

    const std::vector<std::string> tracked = {
        "Dcache", "Bpred", "IntReg", "IntExec", "LdStQ"};

    const PackageConfig air = PackageConfig::makeAirSink(0.3, 45.0);
    const double v = oilVelocityForResistance(
        fluids::irTransparentOil(), fp.width(),
        fp.width() * fp.height(), 0.3);
    setQuiet(true); // the ~0.3 K/W oil speed is unrealistic; paper §5.1.1
    const PackageConfig oil = PackageConfig::makeOilSilicon(
        v, FlowDirection::LeftToRight, 45.0);
    std::printf("oil velocity for Rconv = 0.3: %.0f m/s (paper notes "
                "~100 m/s would be needed — unrealistically fast)\n\n",
                v);

    const StackModel air_model(fp, air);
    const StackModel oil_model(fp, oil);
    setQuiet(false);
    const TraceResult air_res = replay(air_model, trace, tracked);
    const TraceResult oil_res = replay(oil_model, trace, tracked);

    // Decimated trace table (every 4000 samples ~ 13 ms).
    TextTable tt({"sample", "AIR IntReg", "AIR Dcache", "OIL IntReg",
                  "OIL Dcache", "AIR mean", "OIL mean"});
    for (std::size_t s = 0; s < samples; s += 4000) {
        tt.addRow(std::to_string(s),
                  {air_res.temps.at("IntReg")[s],
                   air_res.temps.at("Dcache")[s],
                   oil_res.temps.at("IntReg")[s],
                   oil_res.temps.at("Dcache")[s],
                   air_res.chip_mean[s], oil_res.chip_mean[s]});
    }
    tt.print(std::cout);

    // Per-block summary over the whole run.
    TextTable st({"block", "AIR mean (C)", "AIR p-p (C)",
                  "OIL mean (C)", "OIL p-p (C)"});
    for (const std::string &name : tracked) {
        const Summary a = summarize(air_res.temps.at(name));
        const Summary o = summarize(oil_res.temps.at(name));
        st.addRow(name,
                  {a.mean, a.max - a.min, o.mean, o.max - o.min});
    }
    std::printf("\n");
    st.print(std::cout);

    // Claim 1: how long the die "remembers" a power phase — the
    // 1/e autocorrelation time of the IntReg temperature
    // fluctuations. AIR-SINK's fast local RC forgets in
    // milliseconds (temperature plateaus between phases); OIL keeps
    // integrating for tens of milliseconds, so the processor spends
    // its time in transients.
    auto acf_time = [](const std::vector<double> &trace, double dt) {
        const std::size_t n = trace.size();
        double mean = 0.0;
        for (double v : trace)
            mean += v;
        mean /= static_cast<double>(n);
        double var = 0.0;
        for (double v : trace)
            var += (v - mean) * (v - mean);
        if (var <= 0.0)
            return -1.0;
        for (std::size_t lag = 1; lag < n / 2; ++lag) {
            double acc = 0.0;
            for (std::size_t i = 0; i + lag < n; ++i)
                acc += (trace[i] - mean) * (trace[i + lag] - mean);
            if (acc / var < 1.0 / 2.718281828)
                return static_cast<double>(lag) * dt;
        }
        return -1.0;
    };
    const double a_acf = acf_time(air_res.temps.at("IntReg"),
                                  air_res.sampleInterval);
    const double o_acf = acf_time(oil_res.temps.at("IntReg"),
                                  oil_res.sampleInterval);
    std::printf("\nIntReg thermal memory (1/e autocorrelation time): "
                "AIR %.1f ms, OIL %.1f ms (paper: heat-up/cool-down "
                "phases ~3 ms vs much more than 15 ms)\n",
                a_acf * 1e3, o_acf * 1e3);
    std::printf("max |dT/dt| on IntReg: AIR %.1f C/ms, OIL %.1f C/ms "
                "(paper Sec. 5.2: comparable absolute rates)\n",
                1e-3 * maxRate(air_res.temps.at("IntReg"),
                               air_res.sampleInterval),
                1e-3 * maxRate(oil_res.temps.at("IntReg"),
                               oil_res.sampleInterval));

    // Does the temperature track the instantaneous power (AIR
    // plateaus within each phase) or integrate history (OIL spends
    // its time in transients)? Pearson correlation of IntReg's
    // temperature with IntReg's power sample.
    auto track_corr = [&](const TraceResult &r) {
        const std::size_t intreg = fp.blockIndex("IntReg");
        const std::vector<double> &t = r.temps.at("IntReg");
        double mt = 0.0, mp = 0.0;
        for (std::size_t s = 0; s < samples; ++s) {
            mt += t[s];
            mp += trace.sample(s)[intreg];
        }
        mt /= static_cast<double>(samples);
        mp /= static_cast<double>(samples);
        double ctp = 0.0, ct = 0.0, cp = 0.0;
        for (std::size_t s = 0; s < samples; ++s) {
            const double dt_ = t[s] - mt;
            const double dp = trace.sample(s)[intreg] - mp;
            ctp += dt_ * dp;
            ct += dt_ * dt_;
            cp += dp * dp;
        }
        return ctp / std::sqrt(ct * cp);
    };
    std::printf("IntReg temperature-power tracking correlation: AIR "
                "%.2f, OIL %.2f (AIR settles within a phase — "
                "'constant temperature phases'; OIL stays in "
                "transients)\n",
                track_corr(air_res), track_corr(oil_res));

    // Claim 2: hottest-unit distinctness — the mean margin of the
    // hottest block over the runner-up.
    auto distinctness = [&](const TraceResult &r) {
        double margin = 0.0;
        for (std::size_t s = 0; s < samples; ++s) {
            double best = -1e300, second = -1e300;
            for (const auto &kv : r.temps) {
                const double t = kv.second[s];
                if (t > best) {
                    second = best;
                    best = t;
                } else if (t > second) {
                    second = t;
                }
            }
            margin += best - second;
        }
        return margin / static_cast<double>(samples);
    };
    std::printf("hot-spot distinctness (mean margin of hottest over "
                "runner-up): AIR %.2f C, OIL %.2f C (paper: AIR more "
                "distinct relative to its own spread)\n",
                distinctness(air_res), distinctness(oil_res));

    // Claim 4: comparable averages.
    std::printf("chip mean over run: AIR %.1f C, OIL %.1f C "
                "(paper: about the same)\n",
                bench::meanOf(air_res.chip_mean),
                bench::meanOf(oil_res.chip_mean));
    return 0;
}
