/**
 * @file
 * Tests of the scenario sweep engine: canonical hashing, plan
 * expansion, failure isolation, journaling, and checkpoint/resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "campaign/invariants.hh"
#include "floorplan/presets.hh"
#include "numeric/impulse_cache.hh"
#include "obs/metrics.hh"
#include "sweep/json.hh"
#include "sweep/plan.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "sweep/scenario.hh"

namespace irtherm::sweep
{
namespace
{

/** Fresh per-test output directory under the gtest temp root. */
std::string
freshOutDir(const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("irtherm_sweep_" + tag);
    std::filesystem::remove_all(dir);
    return dir.string();
}

std::size_t
countJournalLines(const std::string &path)
{
    std::ifstream in(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++n;
    return n;
}

// ---------------------------------------------------------------
// Hashing and canonical serialization
// ---------------------------------------------------------------

TEST(ScenarioHash, StableAcrossFieldReordering)
{
    // Same settings, JSON keys listed in different orders (and one
    // using the nested form) must produce byte-identical canonical
    // serializations and therefore equal hashes.
    const SweepPlan a = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5,
                     "config.cooling": "oil",
                     "config.oil_velocity": 0.2}})",
        "a");
    const SweepPlan b = SweepPlan::parse(
        R"({"base": {"config": {"oil_velocity": 0.2,
                                "cooling": "oil"},
                     "power": {"uniform": 0.5},
                     "floorplan": "preset:ev6"}})",
        "b");
    EXPECT_EQ(a.base().canonicalSerialization(),
              b.base().canonicalSerialization());
    EXPECT_EQ(a.base().hash(), b.base().hash());
}

TEST(ScenarioHash, NumberFormattingIsCanonical)
{
    // 0.50, 5e-1, and 0.5 are the same double, so they must hash
    // identically even though the JSON spellings differ.
    const char *spellings[] = {"0.5", "0.50", "5e-1", "0.5000000"};
    std::vector<std::uint64_t> hashes;
    for (const char *s : spellings) {
        const SweepPlan p = SweepPlan::parse(
            std::string(R"({"base": {"floorplan": "preset:ev6",
                                     "power.uniform": )") +
                s + "}}",
            s);
        hashes.push_back(p.base().hash());
    }
    for (std::size_t i = 1; i < hashes.size(); ++i)
        EXPECT_EQ(hashes[0], hashes[i]) << spellings[i];
}

TEST(ScenarioHash, NameDoesNotAffectHash)
{
    ScenarioSpec a, b;
    a.set("floorplan", "preset:ev6");
    a.set("power.uniform", "0.5");
    b = a;
    a.set("name", "first");
    b.set("name", "renamed");
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.displayName(), "first");
    EXPECT_EQ(b.displayName(), "renamed");
}

TEST(ScenarioHash, SettingsChangeTheHash)
{
    ScenarioSpec a;
    a.set("floorplan", "preset:ev6");
    a.set("power.uniform", "0.5");
    ScenarioSpec b = a;
    b.set("power.uniform", "0.6");
    EXPECT_NE(a.hash(), b.hash());
}

TEST(ScenarioHash, StackHashIgnoresPowerButTracksConfig)
{
    // The warm-start key covers the RC network only: floorplan +
    // config. Power changes keep the stack; config changes break it.
    ScenarioSpec a;
    a.set("floorplan", "preset:ev6");
    a.set("config.cooling", "oil");
    a.set("power.uniform", "0.5");
    ScenarioSpec b = a;
    b.set("power.uniform", "0.9");
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.stackHash(), b.stackHash());
    ScenarioSpec c = a;
    c.set("config.oil_velocity", "0.2");
    EXPECT_NE(a.stackHash(), c.stackHash());
}

// ---------------------------------------------------------------
// Plan expansion
// ---------------------------------------------------------------

TEST(SweepPlan, CrossProductCounts)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"name": "xp",
            "base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5},
            "scenarios": [{"name": "lo"},
                          {"name": "hi", "power.uniform": 1.5}],
            "axes": {"config.cooling": ["air", "oil"],
                     "config.oil_velocity": [0.1, 0.2, 0.5]}})",
        "xp");
    EXPECT_EQ(plan.jobCount(), 2u * 2u * 3u);
    const std::vector<ScenarioSpec> jobs = plan.expand();
    ASSERT_EQ(jobs.size(), 12u);

    // Deterministic order: scenario-major, then axes odometer with
    // the last (sorted) axis fastest.
    EXPECT_EQ(jobs[0].displayName(), "lo/cooling=air,oil_velocity=0.1");
    EXPECT_EQ(jobs[1].displayName(), "lo/cooling=air,oil_velocity=0.2");
    EXPECT_EQ(jobs[3].displayName(), "lo/cooling=oil,oil_velocity=0.1");
    EXPECT_EQ(jobs[6].displayName(), "hi/cooling=air,oil_velocity=0.1");

    // Axis assignments override the base/scenario values.
    EXPECT_EQ(*jobs[3].find("config.cooling"), "oil");
    EXPECT_EQ(*jobs[6].find("power.uniform"), "1.5");

    // All twelve jobs hash distinctly.
    std::vector<std::uint64_t> hashes;
    for (const ScenarioSpec &job : jobs)
        hashes.push_back(job.hash());
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end());
}

TEST(SweepPlan, NoAxesMeansOneJobPerScenario)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5}})",
        "single");
    EXPECT_EQ(plan.jobCount(), 1u);
    EXPECT_EQ(plan.expand().size(), 1u);
}

TEST(SweepPlan, RejectsMalformedPlans)
{
    EXPECT_THROW(SweepPlan::parse("not json", "t"), FatalError);
    EXPECT_THROW(SweepPlan::parse(R"({"axes": {"k": "scalar"}})", "t"),
                 FatalError);
    EXPECT_THROW(SweepPlan::parse(R"({"axes": {"k": []}})", "t"),
                 FatalError);
    EXPECT_THROW(
        SweepPlan::parse(R"({"base": 7})", "t"), FatalError);
}

TEST(Scenario, ResolveValidates)
{
    ScenarioSpec missing_floorplan;
    missing_floorplan.set("power.uniform", "0.5");
    EXPECT_THROW(missing_floorplan.resolve(), FatalError);

    ScenarioSpec unknown_key;
    unknown_key.set("floorplan", "preset:ev6");
    unknown_key.set("power.uniform", "0.5");
    unknown_key.set("warp.factor", "9");
    EXPECT_THROW(unknown_key.resolve(), FatalError);

    ScenarioSpec no_power;
    no_power.set("floorplan", "preset:ev6");
    EXPECT_THROW(no_power.resolve(), FatalError);

    ScenarioSpec ok;
    ok.set("floorplan", "preset:ev6");
    ok.set("power.uniform", "0.5");
    ok.set("power.block.IntReg", "4.0");
    ok.set("config.cooling", "oil");
    const ResolvedScenario r = ok.resolve();
    EXPECT_EQ(r.config.package.cooling, CoolingKind::OilSilicon);
    EXPECT_EQ(r.blockPowers.size(), r.floorplan.blockCount());
    EXPECT_DOUBLE_EQ(
        r.blockPowers[r.floorplan.blockIndex("IntReg")], 4.0);
}

// ---------------------------------------------------------------
// Journal round-trip
// ---------------------------------------------------------------

TEST(ResultStore, JournalLineRoundTrip)
{
    JobResult r;
    r.hash = "00ff00ff00ff00ff";
    r.name = "weird \"name\" with, commas\nand a newline";
    r.status = JobStatus::Ok;
    r.wallSeconds = 1.25;
    r.peakCelsius = 91.5;
    r.minCelsius = 71.25;
    r.gradientKelvin = 20.25;
    r.hottestUnit = "IntReg";
    r.heatPrimaryWatts = 40.0;
    r.heatSecondaryWatts = 1.5;
    r.cgIterations = 123;
    r.warmStarted = true;
    r.blockCelsius = {{"A", 80.0}, {"B", 91.5}};

    const std::string line = r.toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const JobResult back = JobResult::fromJsonLine(line, "test");
    EXPECT_EQ(back.hash, r.hash);
    EXPECT_EQ(back.name, r.name);
    EXPECT_EQ(back.status, JobStatus::Ok);
    EXPECT_DOUBLE_EQ(back.peakCelsius, r.peakCelsius);
    EXPECT_DOUBLE_EQ(back.gradientKelvin, r.gradientKelvin);
    EXPECT_EQ(back.hottestUnit, "IntReg");
    EXPECT_EQ(back.cgIterations, 123u);
    EXPECT_TRUE(back.warmStarted);
    ASSERT_EQ(back.blockCelsius.size(), 2u);
    EXPECT_EQ(back.blockCelsius[1].first, "B");
    EXPECT_DOUBLE_EQ(back.blockCelsius[1].second, 91.5);

    JobResult f;
    f.hash = "1";
    f.name = "boom";
    f.status = JobStatus::Failed;
    f.error = "CG diverged";
    const JobResult fback =
        JobResult::fromJsonLine(f.toJsonLine(), "test");
    EXPECT_EQ(fback.status, JobStatus::Failed);
    EXPECT_EQ(fback.error, "CG diverged");
}

TEST(ResultStore, PersistsAndReloads)
{
    const std::string dir = freshOutDir("store");
    {
        ResultStore store(dir);
        JobResult r;
        r.hash = "abc";
        r.name = "one";
        store.add(r);
        EXPECT_TRUE(store.has("abc"));
        EXPECT_FALSE(store.has("def"));
    }
    ResultStore reloaded(dir);
    EXPECT_EQ(reloaded.loadJournal(), 1u);
    ASSERT_NE(reloaded.findResult("abc"), nullptr);
    EXPECT_EQ(reloaded.findResult("abc")->name, "one");
}

// ---------------------------------------------------------------
// Runner: isolation, caching, resume
// ---------------------------------------------------------------

/** A small 3-job plan whose middle job cannot converge. */
const char *kFailurePlan =
    R"({"name": "iso",
        "base": {"floorplan": "preset:ev6", "power.uniform": 0.5},
        "scenarios": [
          {"name": "good-a"},
          {"name": "bad", "power.uniform": 0.6,
           "solver.max_iterations": 1, "solver.fallback": "false"},
          {"name": "good-b", "power.uniform": 0.7}]})";

TEST(SweepRunner, FailedJobDoesNotAbortTheBatch)
{
    const SweepPlan plan = SweepPlan::parse(kFailurePlan, "iso");
    SweepOptions opts;
    opts.outDir = freshOutDir("iso");
    opts.workers = 2;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.total, 3u);
    EXPECT_EQ(sum.executed, 3u);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_EQ(sum.failed, 1u);
    EXPECT_EQ(sum.timedOut, 0u);

    // The failure is journaled with its error text; siblings are ok.
    ResultStore store(opts.outDir);
    EXPECT_EQ(store.loadJournal(), 3u);
    std::size_t failed = 0;
    for (const ScenarioSpec &job : plan.expand()) {
        const JobResult *r = store.findResult(job.hashHex());
        ASSERT_NE(r, nullptr) << job.displayName();
        if (r->status == JobStatus::Failed) {
            ++failed;
            EXPECT_EQ(r->name, "bad");
            EXPECT_FALSE(r->error.empty());
        }
    }
    EXPECT_EQ(failed, 1u);
}

TEST(SweepRunner, TimeoutIsIsolatedToo)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5}})",
        "tmo");
    SweepOptions opts;
    opts.outDir = freshOutDir("tmo");
    opts.workers = 1;
    opts.jobTimeoutSeconds = 1e-9; // expires at the first checkpoint
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.executed, 1u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.ok, 0u);
}

TEST(SweepRunner, KillMidSweepThenResumeRunsExactlyTheRest)
{
    const char *planText =
        R"({"name": "resume",
            "base": {"floorplan": "preset:ev6"},
            "axes": {"power.uniform": [0.3, 0.4, 0.5, 0.6]}})";
    const SweepPlan plan = SweepPlan::parse(planText, "resume");
    ASSERT_EQ(plan.jobCount(), 4u);

    SweepOptions opts;
    opts.outDir = freshOutDir("resume");
    opts.workers = 1;  // stopAfter is exact with one worker
    opts.stopAfter = 2;
    const SweepSummary first = runSweep(plan, opts);
    EXPECT_EQ(first.executed, 2u);
    EXPECT_EQ(first.ok, 2u);
    EXPECT_EQ(countJournalLines(first.journalPath), 2u);

    // "Restart the process": a fresh run with --resume must simulate
    // exactly the two unjournaled jobs.
    SweepOptions again = opts;
    again.stopAfter = 0;
    again.resume = true;
    const SweepSummary second = runSweep(plan, again);
    EXPECT_EQ(second.total, 4u);
    EXPECT_EQ(second.cached, 2u);
    EXPECT_EQ(second.executed, 2u);
    EXPECT_EQ(second.ok, 2u);
    EXPECT_EQ(countJournalLines(second.journalPath), 4u);

    // A third resumed run performs zero new simulations.
    const SweepSummary third = runSweep(plan, again);
    EXPECT_EQ(third.cached, 4u);
    EXPECT_EQ(third.executed, 0u);
}

TEST(SweepRunner, DuplicateScenariosRunOnce)
{
    // Two scenarios that differ only by name share a hash: the
    // second is skipped as a duplicate, not re-simulated.
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5},
            "scenarios": [{"name": "a"}, {"name": "a-again"}]})",
        "dup");
    SweepOptions opts;
    opts.outDir = freshOutDir("dup");
    opts.workers = 1;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.total, 2u);
    EXPECT_EQ(sum.executed, 1u);
    EXPECT_EQ(sum.duplicates, 1u);
}

TEST(SweepRunner, WarmStartReusesMatchingStacks)
{
    // Same floorplan + config, different powers: the second job seeds
    // its CG solve from the first job's temperatures.
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6"},
            "axes": {"power.uniform": [0.5, 0.55]}})",
        "warm");
    SweepOptions opts;
    opts.outDir = freshOutDir("warm");
    opts.workers = 1; // deterministic completion order
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.executed, 2u);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_EQ(sum.warmStarted, 1u);

    // The warm-started solve converges in fewer iterations than the
    // cold one (nearby right-hand sides).
    ResultStore store(opts.outDir);
    store.loadJournal();
    const std::vector<ScenarioSpec> jobs = plan.expand();
    const JobResult *cold = store.findResult(jobs[0].hashHex());
    const JobResult *warm = store.findResult(jobs[1].hashHex());
    ASSERT_NE(cold, nullptr);
    ASSERT_NE(warm, nullptr);
    EXPECT_FALSE(cold->warmStarted);
    EXPECT_TRUE(warm->warmStarted);
    EXPECT_LT(warm->cgIterations, cold->cgIterations);
}

TEST(SweepRunner, ReportsAreWritten)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5},
            "axes": {"config.cooling": ["air", "oil"]}})",
        "rep");
    SweepOptions opts;
    opts.outDir = freshOutDir("rep");
    opts.workers = 2;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_TRUE(std::filesystem::exists(sum.csvPath));
    EXPECT_TRUE(std::filesystem::exists(sum.jsonPath));

    // The JSON report must itself parse with the sweep JSON reader.
    std::ifstream in(sum.jsonPath);
    std::ostringstream body;
    body << in.rdbuf();
    const JsonValue root = parseJson(body.str(), sum.jsonPath);
    ASSERT_NE(root.find("schema"), nullptr);
    EXPECT_EQ(root.find("schema")->text, "irtherm.sweep.v1");
    ASSERT_NE(root.find("results"), nullptr);
    EXPECT_EQ(root.find("results")->items.size(), 2u);
}

// ---------------------------------------------------------------
// Stack cache: one model (and warm start) per stack hash
// ---------------------------------------------------------------

double
counterValue(const char *name)
{
    return static_cast<double>(
        obs::MetricsRegistry::global().counter(name).value());
}

double
modelsKept()
{
    return obs::MetricsRegistry::global()
        .gauge("sweep.stack_cache.models")
        .value();
}

/** Grid-8 oil base: cheap, but still a real grid model with
 *  superposition and advection. */
constexpr const char *kOilGridBase =
    R"("base": {"floorplan": "preset:ev6", "mode": "steady",
                "config": {"cooling": "oil", "model_mode": "grid",
                           "grid_nx": 8, "grid_ny": 8}})";

/** One steady scenario object on the stack of @p velocity. */
std::string
steadyScenario(const std::string &name, double velocity, double watts,
               const std::string &extra = "")
{
    return "{\"name\": \"" + name +
           "\", \"config.oil_velocity\": " + std::to_string(velocity) +
           ", \"power.uniform\": " + std::to_string(watts) + extra + "}";
}

std::string
planOf(const std::vector<std::string> &scenarios,
       const std::string &axes = "")
{
    std::string text = std::string("{") + kOilGridBase +
                       ", \"scenarios\": [";
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        text += (i ? ",\n" : "\n") + scenarios[i];
    text += "]";
    if (!axes.empty())
        text += ", \"axes\": " + axes;
    return text + "}";
}

/** Steady jobs per stack, as runSweep counts them for the
 *  superposition gate. */
std::map<std::uint64_t, std::size_t>
steadyJobsPerStack(const std::vector<ScenarioSpec> &jobs)
{
    std::map<std::uint64_t, std::size_t> out;
    for (const ScenarioSpec &spec : jobs) {
        const std::string *mode = spec.find("mode");
        if (mode == nullptr || *mode == "steady")
            ++out[spec.stackHash()];
    }
    return out;
}

/** @p jobs run in order through an executor that was never told any
 *  counts: every job assembles its own model. */
std::vector<JobResult>
runPerJobBuild(const std::vector<ScenarioSpec> &jobs,
               const SweepOptions &opts)
{
    const std::map<std::uint64_t, std::size_t> steady =
        steadyJobsPerStack(jobs);
    ImpulseResponseCache::global().clear();
    JobExecutor executor(opts);
    std::vector<JobResult> out;
    for (const ScenarioSpec &spec : jobs) {
        const std::size_t n = steady.count(spec.stackHash())
                                  ? steady.at(spec.stackHash())
                                  : 0;
        out.push_back(
            executor.run(spec, n >= opts.superpositionMinJobs));
    }
    return out;
}

TEST(StackCache, SharingIsTransparentToJournaledRows)
{
    const std::string dir = freshOutDir("stack_transparent");
    std::filesystem::create_directories(dir);
    const std::string ptrace = dir + "/pulse.ptrace";
    {
        std::ofstream out(ptrace);
        const Floorplan fp = floorplans::alphaEv6();
        for (std::size_t b = 0; b < fp.blockCount(); ++b)
            out << (b ? " " : "") << fp.block(b).name;
        out << "\n";
        for (int row = 0; row < 12; ++row) {
            for (std::size_t b = 0; b < fp.blockCount(); ++b)
                out << (b ? " " : "") << (row % 4 < 2 ? 2.0 : 0.5);
            out << "\n";
        }
    }
    // Stack A: 12 superposed jobs with 3 iterative ones (warm
    // started from their superposed neighbours) and 2 transient
    // replays between them; stack B: 12 superposed jobs. The stacks
    // take turns in blocks of four, so the one kept model (one
    // worker) is evicted at every turn but the last.
    std::vector<std::string> scenarios;
    for (int j = 0; j < 12; ++j) {
        scenarios.push_back(steadyScenario(
            "a" + std::to_string(j), 8.0, 0.3 + 0.05 * j));
        if (j % 4 == 1)
            scenarios.push_back(steadyScenario(
                "a-cg" + std::to_string(j), 8.0, 0.35 + 0.05 * j,
                ", \"solver.superposition\": false"));
        if (j == 5 || j == 9)
            scenarios.push_back(
                "{\"name\": \"a-pulse" + std::to_string(j) +
                "\", \"config.oil_velocity\": 8.0, \"mode\": "
                "\"transient\", \"integrator\": \"be\", \"ptrace\": \"" +
                ptrace + "\", \"ptrace.sampling\": " +
                (j == 5 ? "0.001" : "0.002") + "}");
        if (j % 4 == 3)
            for (int b = j - 3; b <= j; ++b)
                scenarios.push_back(steadyScenario(
                    "b" + std::to_string(b), 12.0, 0.4 + 0.05 * b));
    }
    const SweepPlan plan = SweepPlan::parse(planOf(scenarios), "clear");
    const std::vector<ScenarioSpec> jobs = plan.expand();
    ASSERT_EQ(jobs.size(), 29u);

    SweepOptions opts;
    opts.outDir = dir + "/sweep";
    opts.workers = 1;
    ImpulseResponseCache::global().clear();
    const double builds = counterValue("sweep.stack_cache.builds");
    const double hits = counterValue("sweep.stack_cache.hits");
    const double evictions =
        counterValue("sweep.stack_cache.evictions");
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.ok, jobs.size());
    EXPECT_EQ(sum.impulseCacheHits, 22u);
    EXPECT_EQ(sum.warmStarted, 3u);
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(counterValue("sweep.stack_cache.builds") - builds, 6.0);
        EXPECT_EQ(counterValue("sweep.stack_cache.hits") - hits, 23.0);
        EXPECT_EQ(
            counterValue("sweep.stack_cache.evictions") - evictions, 4.0);
    }

    const std::vector<JobResult> reference = runPerJobBuild(jobs, opts);
    ResultStore store(opts.outDir);
    ASSERT_EQ(store.loadJournal(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult *row = store.findResult(jobs[i].hashHex());
        ASSERT_NE(row, nullptr) << jobs[i].displayName();
        EXPECT_EQ(campaign::normalizedLine(*row),
                  campaign::normalizedLine(reference[i]))
            << jobs[i].displayName();
    }
}

TEST(StackCache, ConcurrentJobsOfAStackShareOneBuild)
{
    std::vector<std::string> scenarios;
    for (const double v : {6.0, 9.0, 12.0})
        for (int j = 0; j < 16; ++j)
            scenarios.push_back(steadyScenario(
                "v" + std::to_string(v) + "-" + std::to_string(j), v,
                0.3 + 0.02 * j));
    const SweepPlan plan = SweepPlan::parse(planOf(scenarios), "share");
    SweepOptions opts;
    opts.outDir = freshOutDir("stack_share");
    opts.workers = 4;
    const double builds = counterValue("sweep.stack_cache.builds");
    const double hits = counterValue("sweep.stack_cache.hits");
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.executed, 48u);
    EXPECT_EQ(sum.ok, 48u);
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    EXPECT_EQ(counterValue("sweep.stack_cache.builds") - builds, 3.0);
    EXPECT_EQ(counterValue("sweep.stack_cache.hits") - hits, 45.0);
}

TEST(StackCache, DistinctStacksKeepNoModel)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    std::string values;
    for (int j = 0; j < 40; ++j)
        values += (j ? ", " : "") + std::to_string(4.0 + 0.25 * j);
    const SweepPlan plan = SweepPlan::parse(
        planOf({steadyScenario("d", 8.0, 0.5)},
               "{\"config.oil_velocity\": [" + values + "]}"),
        "distinct");
    const std::vector<ScenarioSpec> jobs = plan.expand();
    ASSERT_EQ(jobs.size(), 40u);

    SweepOptions opts;
    opts.workers = 2;
    std::map<std::uint64_t, std::size_t> perStack;
    for (const ScenarioSpec &spec : jobs)
        ++perStack[spec.stackHash()];
    ASSERT_EQ(perStack.size(), 40u);
    const double kept = modelsKept();
    const double builds = counterValue("sweep.stack_cache.builds");
    const double hits = counterValue("sweep.stack_cache.hits");
    JobExecutor executor(opts);
    executor.expectJobs(perStack);
    for (const ScenarioSpec &spec : jobs) {
        EXPECT_EQ(executor.run(spec).status, JobStatus::Ok);
        EXPECT_EQ(modelsKept(), kept) << spec.displayName();
    }
    EXPECT_EQ(counterValue("sweep.stack_cache.builds") - builds, 40.0);
    EXPECT_EQ(counterValue("sweep.stack_cache.hits") - hits, 0.0);
}

TEST(StackCache, InterleavedStacksStayWithinTheBound)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    // Power outer, stack inner: consecutive jobs cycle through three
    // stacks, which a two-model bound cannot all keep.
    std::vector<std::string> scenarios;
    for (int j = 0; j < 8; ++j)
        scenarios.push_back("{\"name\": \"p" + std::to_string(j) +
                            "\", \"power.uniform\": " +
                            std::to_string(0.3 + 0.05 * j) + "}");
    const SweepPlan plan = SweepPlan::parse(
        planOf(scenarios, R"({"config.oil_velocity": [6, 9, 12]})"),
        "interleaved");
    const std::vector<ScenarioSpec> jobs = plan.expand();
    ASSERT_EQ(jobs.size(), 24u);
    ASSERT_NE(jobs[0].stackHash(), jobs[1].stackHash());

    SweepOptions opts;
    opts.workers = 2; // bound: two kept models
    std::map<std::uint64_t, std::size_t> perStack;
    for (const ScenarioSpec &spec : jobs)
        ++perStack[spec.stackHash()];
    const std::map<std::uint64_t, std::size_t> steady =
        steadyJobsPerStack(jobs);
    const double kept = modelsKept();
    const double evictions =
        counterValue("sweep.stack_cache.evictions");
    std::vector<JobResult> rows;
    {
        ImpulseResponseCache::global().clear();
        JobExecutor executor(opts);
        executor.expectJobs(perStack);
        for (const ScenarioSpec &spec : jobs) {
            rows.push_back(executor.run(
                spec, steady.at(spec.stackHash()) >=
                          opts.superpositionMinJobs));
            EXPECT_LE(modelsKept() - kept, 2.0) << spec.displayName();
        }
        EXPECT_EQ(modelsKept(), kept); // every stack ran out of jobs
    }
    EXPECT_GT(counterValue("sweep.stack_cache.evictions") - evictions,
              0.0);

    const std::vector<JobResult> reference = runPerJobBuild(jobs, opts);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(rows[i].status, JobStatus::Ok);
        EXPECT_EQ(campaign::normalizedLine(rows[i]),
                  campaign::normalizedLine(reference[i]))
            << jobs[i].displayName();
    }
}

TEST(StackCache, FailedBuildFailsOnlyItsOwnStack)
{
    // Microchannel cooling needs grid mode: its block-mode model
    // throws while assembling, for every job of that stack.
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6"},
            "axes": {"config.cooling": ["air", "microchannel"],
                     "power.uniform": [0.3, 0.4, 0.5, 0.6, 0.7, 0.8]}})",
        "badstack");
    const std::vector<ScenarioSpec> jobs = plan.expand();
    SweepOptions opts;
    opts.outDir = freshOutDir("stack_failed_build");
    opts.workers = 4;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.executed, 12u);
    EXPECT_EQ(sum.ok, 6u);
    EXPECT_EQ(sum.failed, 6u);

    const std::vector<JobResult> reference = runPerJobBuild(jobs, opts);
    ResultStore store(opts.outDir);
    ASSERT_EQ(store.loadJournal(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult *row = store.findResult(jobs[i].hashHex());
        ASSERT_NE(row, nullptr) << jobs[i].displayName();
        const bool microchannel =
            *jobs[i].find("config.cooling") == "microchannel";
        EXPECT_EQ(row->status,
                  microchannel ? JobStatus::Failed : JobStatus::Ok);
        EXPECT_EQ(row->status, reference[i].status);
        EXPECT_EQ(row->errorClass, reference[i].errorClass);
        EXPECT_EQ(row->error, reference[i].error);
    }
}

} // namespace
} // namespace irtherm::sweep
