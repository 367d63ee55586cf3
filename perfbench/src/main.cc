/**
 * @file
 * irtherm_perfbench: one run of one workload.
 *
 *   irtherm_perfbench --workload W --seed N --seconds T --trace 0|1
 *                    --out DIR [--corrupt]
 *
 * A run repeats rounds until T seconds have passed (at least
 * kMinTimedRounds timed rounds), discards round 0 as warm-up, and
 * reports the median round. Every round is generated from (seed,
 * round), runs in a fresh output directory, and is checked. Before
 * each round the host-speed reference job is timed (host_speed.hh);
 * the times are reported scaled to the nominal host.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 runs each round
 * three times — end to end untraced, end to end with the program's
 * span recorder on, and replayed through the layers with bench spans
 * — and prints the per-layer metrics; it also writes layers.json and
 * trace.json (Chrome trace_event, last round) under DIR.
 *
 * The last stdout line is the JSON result. Exit status: 0 when every
 * job was Ok and every sampled job matched its reference, 1 when not,
 * 2 on a usage error or a crash.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "numeric/impulse_cache.hh"
#include "obs/span.hh"
#include "obs/trace_clock.hh"

#include "host_speed.hh"
#include "inputs.hh"
#include "layers.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

constexpr std::size_t kMinTimedRounds = 3;
/** Span ring for traced rounds: a transient round records one
 *  integrator span per sample per job. */
constexpr std::size_t kTraceSpanCapacity = std::size_t(1) << 18;

struct Args
{
    Workload workload = Workload::SharedStack;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out;
    bool corrupt = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt") {
            a.corrupt = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (flag == "--workload") {
            haveWorkload = parseWorkload(v, a.workload);
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::atof(v.c_str());
            haveSeconds = a.seconds > 0.0;
        } else if (flag == "--trace") {
            a.trace = v == "1";
            haveTrace = v == "0" || v == "1";
        } else if (flag == "--out") {
            a.out = v;
        } else {
            return false;
        }
    }
    return haveWorkload && haveSeed && haveSeconds && haveTrace &&
           !a.out.empty();
}

double
processCpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec +
                                      u.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Metric
{
    const char *name;
    const char *unit;
};

constexpr Metric kEndToEnd[] = {
    {"jobs_per_s", "1/s"},
    {"setup_s", "s"},
    {"cpu_s_per_job", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"sweep.plan.self_s", "s"},
    {"sweep.resolve.calls", "count"},
    {"sweep.resolve.self_s", "s"},
    {"core.assemble.calls", "count"},
    {"core.assemble.self_s", "s"},
    {"core.steady.calls", "count"},
    {"core.steady.self_s", "s"},
    {"core.steady.superposed_ratio", "fraction"},
    {"core.impulse_build.count", "count"},
    {"core.impulse_build.self_s", "s"},
    {"core.summarize.self_s", "s"},
    {"core.transient.steps", "count"},
    {"core.transient.self_s", "s"},
    {"core.transient.init_s", "s"},
    {"numeric.cg.self_s", "s"},
    {"numeric.cg.iters_per_solve", "iters/solve"},
    {"numeric.cg.solve_s", "s"},
    {"numeric.mg.setups", "count"},
    {"numeric.rk4.steps", "count"},
    {"numeric.be.solves", "count"},
    {"numeric.fallback_ratio", "fraction"},
    {"sweep.journal.calls", "count"},
    {"sweep.journal.self_s", "s"},
    {"sweep.journal.bytes_per_job", "B/job"},
    {"sweep.finalize.self_s", "s"},
    {"sweep.execute.self_s", "s"},
    {"sweep.worker_idle_frac", "fraction"},
    {"fabric.lease.calls", "count"},
    {"fabric.lease.self_s", "s"},
    {"fabric.lease.jobs_per_lease", "jobs/lease"},
    {"fabric.complete.calls", "count"},
    {"fabric.complete.self_s", "s"},
    {"fabric.json.encode_s", "s"},
    {"fabric.json.decode_s", "s"},
    {"fabric.rpc_per_job", "rpc/job"},
    {"fabric.empty_polls", "count"},
    {"unattributed_frac", "fraction"},
    {"replay_gap_frac", "fraction"},
    {"trace_overhead_frac", "fraction"},
    {"host.ref_s", "s"},
};

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/** The per-layer metrics of one traced round. */
std::map<std::string, double>
layerMetrics(const RoundResult &plain, const RoundResult &traced,
             double jobSpanSeconds, const ReplayResult &rp,
             const LayerTotals &lt, const MetricSnapshot &d)
{
    const auto self = [&lt](const char *layer) {
        const auto it = lt.selfSeconds.find(layer);
        return it == lt.selfSeconds.end() ? 0.0 : it->second;
    };
    const auto calls = [&lt](const char *layer) {
        const auto it = lt.calls.find(layer);
        return it == lt.calls.end() ? 0.0
                                    : static_cast<double>(it->second);
    };
    const double jobs = static_cast<double>(rp.attempted);
    const double steadySolves = d.counter("core.steady.solves");
    std::map<std::string, double> m;
    m["sweep.plan.self_s"] = self("sweep.plan");
    m["sweep.resolve.calls"] = calls("sweep.resolve");
    m["sweep.resolve.self_s"] = self("sweep.resolve");
    m["core.assemble.calls"] = calls("core.assemble");
    m["core.assemble.self_s"] = self("core.assemble");
    m["core.steady.calls"] = calls("core.steady");
    m["core.steady.self_s"] = self("core.steady");
    m["core.steady.superposed_ratio"] =
        ratio(d.counter("core.steady.superposed"), steadySolves);
    m["core.impulse_build.count"] = calls("core.impulse_build");
    m["core.impulse_build.self_s"] = self("core.impulse_build");
    m["core.summarize.self_s"] = self("core.summarize");
    m["core.transient.steps"] = static_cast<double>(rp.transientSteps);
    m["core.transient.self_s"] = self("core.transient");
    m["core.transient.init_s"] = self("core.transient.init");
    m["numeric.cg.self_s"] = self("numeric.cg");
    const auto cgSolves = d.timerCount.find("numeric.cg.solve_time_s");
    const auto cgTotal = d.timerTotal.find("numeric.cg.solve_time_s");
    m["numeric.cg.iters_per_solve"] =
        ratio(d.counter("numeric.cg.iterations"),
              cgSolves == d.timerCount.end() ? 0.0 : cgSolves->second);
    m["numeric.cg.solve_s"] =
        cgTotal == d.timerTotal.end() ? 0.0 : cgTotal->second;
    m["numeric.mg.setups"] = d.counter("numeric.mg.setups");
    m["numeric.rk4.steps"] = d.counter("numeric.rk4.steps");
    m["numeric.be.solves"] = d.counter("numeric.be.solves");
    m["numeric.fallback_ratio"] =
        ratio(d.counterPrefix("resilience.fallback."), steadySolves);
    m["sweep.journal.calls"] = calls("sweep.journal");
    m["sweep.journal.self_s"] =
        self("sweep.journal") + self("sweep.journal.open");
    m["sweep.journal.bytes_per_job"] =
        ratio(d.counter("sweep.journal.bytes_written"), jobs);
    m["sweep.finalize.self_s"] = self("sweep.finalize");
    m["sweep.execute.self_s"] = self("sweep.execute");
    m["sweep.worker_idle_frac"] =
        1.0 - ratio(jobSpanSeconds,
                    static_cast<double>(kJobThreads) * traced.wallSeconds);
    m["fabric.lease.calls"] = static_cast<double>(rp.leaseCalls);
    m["fabric.lease.self_s"] = self("fabric.lease");
    m["fabric.lease.jobs_per_lease"] =
        ratio(static_cast<double>(rp.leasedJobs),
              static_cast<double>(rp.grants));
    m["fabric.complete.calls"] = static_cast<double>(rp.completeCalls);
    m["fabric.complete.self_s"] = self("fabric.complete");
    m["fabric.json.encode_s"] = self("fabric.json.encode");
    m["fabric.json.decode_s"] = rp.decodeSeconds;
    m["fabric.rpc_per_job"] =
        ratio(static_cast<double>(rp.leaseCalls + rp.completeCalls), jobs);
    m["fabric.empty_polls"] = static_cast<double>(rp.emptyPolls);
    m["unattributed_frac"] =
        1.0 - ratio(lt.attributedSeconds, lt.rootSeconds);
    m["replay_gap_frac"] =
        ratio(std::fabs(rp.wallSeconds - plain.wallSeconds),
              plain.wallSeconds);
    m["trace_overhead_frac"] =
        ratio(traced.wallSeconds, plain.wallSeconds) - 1.0;
    return m;
}

/** Sum of the durations of program spans named @p name on any
 *  thread; clears the recorder. */
double
programSpanSeconds(const std::string &name)
{
    auto &rec = irtherm::obs::SpanRecorder::global();
    double sum = 0.0;
    for (const irtherm::obs::SpanRecord &r : rec.snapshot()) {
        if (r.name == name)
            sum += r.durationSeconds;
    }
    rec.clear();
    return sum;
}

/** Running totals of a run: jobs attempted, failed, checked. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t sampled = 0;
    std::string firstProblem;

    void
    add(const CheckResult &c)
    {
        attempted += c.jobs;
        failed += c.notOk + c.mismatches;
        sampled += c.sampled;
        if (firstProblem.empty())
            firstProblem = c.firstProblem;
    }
};

void
printResult(const Tally &t, const std::vector<Metric> &defs,
            const std::map<std::string, double> &values)
{
    std::cout << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << t.attempted
              << ", \"failed\": " << t.failed << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : defs) {
        std::cout << (first ? "" : ", ") << "\"" << m.name
                  << "\": {\"value\": " << num(values.at(m.name))
                  << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

/** Round @p r's directory and generated plan text. */
std::string
prepareRound(const Args &a, std::size_t r, std::string &dir)
{
    dir = (fs::path(a.out) / ("round" + std::to_string(r))).string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    // Start each round as a fresh process would: no impulse responses
    // from earlier rounds, and no spans buffered by earlier rounds
    // (fabric workers re-read the whole ring after every report).
    irtherm::ImpulseResponseCache::global().clear();
    irtherm::obs::SpanRecorder::global().clear();
    return makeRound(a.workload, a.seed, r, dir);
}

std::uint64_t
sampleSeed(const Args &a, std::size_t r)
{
    return irtherm::SplitMix64(a.seed).child(1000003 + r).next();
}

int
runEndToEndRounds(const Args &a)
{
    Tally tally;
    std::vector<double> setup, rate, ref;
    double cpu = 0.0, okJobs = 0.0;
    const double start = irtherm::obs::monotonicSeconds();
    for (std::size_t r = 0;; ++r) {
        const double refSeconds = referenceSeconds();
        std::string dir;
        const std::string plan = prepareRound(a, r, dir);
        const std::string outDir = dir + "/out";
        const double cpu0 = processCpuSeconds();
        const RoundResult rr = runEndToEnd(a.workload, plan, outDir);
        const double cpu1 = processCpuSeconds();
        const CheckResult check = checkRound(a.workload, plan, outDir,
                                             sampleSeed(a, r), a.corrupt);
        tally.add(check);
        if (!(rr.drainSeconds > 0.0)) {
            // No result was seen before the entry point returned: the
            // round has no rate, and counts as failed.
            tally.failed += check.jobs;
            if (tally.firstProblem.empty())
                tally.firstProblem = "round " + std::to_string(r) +
                                     " journaled no result";
        } else if (r > 0) { // round 0 is the warm-up
            setup.push_back(rr.setupSeconds);
            rate.push_back(static_cast<double>(rr.ok) / rr.drainSeconds);
            ref.push_back(refSeconds);
            cpu += cpu1 - cpu0;
            okJobs += static_cast<double>(rr.ok);
        }
        fs::remove_all(dir);
        // A failing run stops on time even short of kMinTimedRounds.
        if ((setup.size() >= kMinTimedRounds || tally.failed != 0) &&
            irtherm::obs::monotonicSeconds() - start >= a.seconds)
            break;
    }
    // slowdown > 1: this host is slower than the nominal one now.
    const double hostRef = median(ref);
    const double slowdown = hostRef / kReferenceNominalSeconds;
    std::map<std::string, double> measured, v;
    measured["jobs_per_s"] = median(rate);
    measured["setup_s"] = median(setup);
    measured["cpu_s_per_job"] = ratio(cpu, okJobs);
    v["jobs_per_s"] = measured["jobs_per_s"] * slowdown;
    v["setup_s"] = measured["setup_s"] / slowdown;
    v["cpu_s_per_job"] = measured["cpu_s_per_job"] / slowdown;
    v["peak_rss_mb"] = peakRssMb();
    const double failedFrac =
        ratio(static_cast<double>(tally.failed),
              static_cast<double>(tally.attempted));
    std::cout << "perfbench: " << workloadName(a.workload) << " seed "
              << a.seed << ": " << rate.size()
              << " timed rounds after 1 warm-up, " << tally.attempted
              << " jobs, " << tally.sampled << " re-solved\n";
    std::cout << "  host reference " << hostRef << " s (nominal "
              << kReferenceNominalSeconds
              << " s); times scaled to the nominal host\n";
    for (const Metric &m : kEndToEnd) {
        std::cout << "  " << m.name << " " << v.at(m.name) << " " << m.unit;
        if (const auto it = measured.find(m.name); it != measured.end())
            std::cout << " (measured " << it->second << ")";
        std::cout << "\n";
    }
    std::cout << "  failed_frac " << failedFrac << " fraction\n";
    if (!tally.firstProblem.empty())
        std::cout << "  first problem: " << tally.firstProblem << "\n";
    printResult(tally, {std::begin(kEndToEnd), std::end(kEndToEnd)}, v);
    return tally.failed == 0 ? 0 : 1;
}

int
runTracedRounds(const Args &a)
{
    auto &rec = irtherm::obs::SpanRecorder::global();
    rec.setCapacity(kTraceSpanCapacity);
    Tally tally;
    std::map<std::string, std::vector<double>> perRound;
    std::map<std::string, std::vector<double>> selfPerRound;
    std::vector<Span> lastSpans;
    std::uint64_t droppedSpans = 0;
    SpanLog log;
    const double start = irtherm::obs::monotonicSeconds();
    for (std::size_t r = 0;; ++r) {
        const double refSeconds = referenceSeconds();
        std::string dir;
        const std::string plan = prepareRound(a, r, dir);

        rec.setEnabled(false);
        const RoundResult plain =
            runEndToEnd(a.workload, plan, dir + "/plain");
        tally.add(checkRound(a.workload, plan, dir + "/plain",
                             sampleSeed(a, r), a.corrupt));

        irtherm::ImpulseResponseCache::global().clear();
        rec.clear();
        rec.setEnabled(true);
        const RoundResult traced =
            runEndToEnd(a.workload, plan, dir + "/traced");
        const double jobSpans = programSpanSeconds("sweep.job");

        irtherm::ImpulseResponseCache::global().clear();
        const MetricSnapshot before = MetricSnapshot::take();
        const ReplayResult rp =
            runReplay(a.workload, plan, dir + "/replay", log);
        const MetricSnapshot delta = MetricSnapshot::take().since(before);
        rec.setEnabled(false);
        std::uint64_t dropped = 0;
        std::vector<Span> spans = programSpans(&dropped);
        droppedSpans += dropped;
        for (Span &s : log.take())
            spans.push_back(std::move(s));
        if (rp.ok != rp.attempted) {
            tally.failed += rp.attempted - rp.ok;
            if (tally.firstProblem.empty())
                tally.firstProblem = "replayed job not Ok";
        }

        if (r > 0) {
            const LayerTotals lt = attribute(spans);
            for (const auto &[k, v] :
                 layerMetrics(plain, traced, jobSpans, rp, lt, delta))
                perRound[k].push_back(v);
            perRound["host.ref_s"].push_back(refSeconds);
            for (const auto &[layer, s] : lt.selfSeconds)
                selfPerRound[layer].push_back(s);
            lastSpans = std::move(spans);
        }
        fs::remove_all(dir);
        if (perRound["unattributed_frac"].size() >= kMinTimedRounds &&
            irtherm::obs::monotonicSeconds() - start >= a.seconds)
            break;
    }

    std::map<std::string, double> v;
    for (const auto &[k, series] : perRound)
        v[k] = median(series);
    const std::string tracePath = (fs::path(a.out) / "trace.json").string();
    writeChromeTrace(tracePath, lastSpans);

    // layers.json: the per-layer metrics plus every layer's median
    // self time, for `run.py --compare`.
    const std::string layersPath =
        (fs::path(a.out) / "layers.json").string();
    {
        std::ofstream out(layersPath);
        out << "{\"schema\":\"perfbench.layers.v1\",\"workload\":\""
            << workloadName(a.workload) << "\",\"seed\":" << a.seed
            << ",\"rounds\":" << perRound["unattributed_frac"].size()
            << ",\"spans_dropped\":" << droppedSpans << ",\"metrics\":{";
        bool first = true;
        for (const Metric &m : kPerLayer) {
            out << (first ? "" : ",") << "\"" << m.name
                << "\":{\"value\":" << num(v.at(m.name))
                << ",\"unit\":\"" << m.unit << "\"}";
            first = false;
        }
        out << "},\"self_s\":{";
        first = true;
        for (const auto &[layer, series] : selfPerRound) {
            out << (first ? "" : ",") << "\"" << layer
                << "\":" << num(median(series));
            first = false;
        }
        out << "}}\n";
        if (!out.flush())
            throw std::runtime_error("cannot write " + layersPath);
    }

    std::cout << "perfbench: traced " << workloadName(a.workload)
              << " seed " << a.seed << ": "
              << perRound["unattributed_frac"].size()
              << " traced rounds after 1 warm-up; " << layersPath << ", "
              << tracePath << "\n";
    std::vector<std::pair<double, std::string>> bySelf;
    for (const auto &[layer, series] : selfPerRound)
        bySelf.emplace_back(median(series), layer);
    std::sort(bySelf.rbegin(), bySelf.rend());
    for (const auto &[s, layer] : bySelf)
        std::cout << "  self " << layer << " " << s << " s\n";
    if (droppedSpans != 0)
        std::cout << "  warning: " << droppedSpans
                  << " program spans dropped by the recorder ring\n";
    if (!tally.firstProblem.empty())
        std::cout << "  first problem: " << tally.firstProblem << "\n";
    printResult(tally, {std::begin(kPerLayer), std::end(kPerLayer)}, v);
    return tally.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::cerr << "usage: irtherm_perfbench --workload "
                     "<sweep_shared_stack|sweep_distinct_stack|"
                     "transient_replay|fabric_loopback> --seed N "
                     "--seconds T --trace 0|1 --out DIR [--corrupt]\n";
        return 2;
    }
    irtherm::setLogLevel(irtherm::LogLevel::Warn);
    try {
        fs::create_directories(a.out);
        a.out = fs::absolute(a.out).string();
        return a.trace ? runTracedRounds(a) : runEndToEndRounds(a);
    } catch (const std::exception &e) {
        std::cerr << "irtherm_perfbench: " << e.what() << "\n";
        return 2;
    }
}
