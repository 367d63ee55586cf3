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
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/errors.hh"
#include "base/fault_injection.hh"
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
    EXPECT_EQ(r.preconditioner, PreconditionerKind::Multigrid);

    // solver.preconditioner takes exactly "jacobi" and "mg"; any other
    // value, the retired "ssor" and "ic0" included, names both.
    for (const char *bad : {"ssor", "ic0", "MG"}) {
        ScenarioSpec spec = ok;
        spec.set("solver.preconditioner", bad);
        try {
            spec.resolve();
            ADD_FAILURE() << bad << " accepted";
        } catch (const ConfigError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'jacobi'"), std::string::npos) << what;
            EXPECT_NE(what.find("'mg'"), std::string::npos) << what;
        }
    }
    ScenarioSpec jacobi = ok;
    jacobi.set("solver.preconditioner", "jacobi");
    EXPECT_EQ(jacobi.resolve().preconditioner, PreconditionerKind::Jacobi);
    ScenarioSpec mg = ok;
    mg.set("solver.preconditioner", "mg");
    EXPECT_EQ(mg.resolve().preconditioner, PreconditionerKind::Multigrid);
}

TEST(Scenario, PerKeyResolveErrorsNameTheirKey)
{
    ScenarioSpec ok;
    ok.set("floorplan", "preset:ev6");
    ok.set("power.uniform", "0.5");
    const struct
    {
        const char *key;
        const char *value;
        const char *message;
    } cases[] = {
        {"power.block.IntReg", "4.0x",
         "fatal: scenario key 'power.block.IntReg': invalid number "
         "'4.0x'"},
        {"power.uniform", "", "fatal: scenario key 'power.uniform': "
                              "empty numeric field"},
        {"power.uniform", "half",
         "fatal: scenario key 'power.uniform': invalid number 'half'"},
        {"ptrace.sampling", "3.3us",
         "fatal: scenario key 'ptrace.sampling': invalid number "
         "'3.3us'"},
        {"solver.tolerance", "1e-9.5",
         "fatal: scenario key 'solver.tolerance': invalid number "
         "'1e-9.5'"},
        {"solver.max_iterations", "2.5",
         "fatal: scenario key 'solver.max_iterations': expected a "
         "positive integer, got '2.5'"},
        {"solver.max_iterations", "many",
         "fatal: scenario key 'solver.max_iterations': invalid number "
         "'many'"},
        {"solver.fallback", "maybe",
         "fatal: scenario key 'solver.fallback': expected a boolean, "
         "got 'maybe'"},
    };
    for (const auto &c : cases) {
        ScenarioSpec spec = ok;
        spec.set(c.key, c.value);
        try {
            spec.resolve();
            ADD_FAILURE() << c.key << "=" << c.value << " accepted";
        } catch (const ConfigError &e) {
            EXPECT_EQ(std::string(e.what()), c.message);
        }
    }
    // Surrounding whitespace is not an error; the value is the same.
    ScenarioSpec padded = ok;
    padded.set("power.block.IntReg", " 4.0 ");
    const ResolvedScenario r = padded.resolve();
    EXPECT_EQ(r.blockPowers[r.floorplan.blockIndex("IntReg")], 4.0);
}

TEST(ScenarioHash, SetAfterHashingChangesTheHashes)
{
    ScenarioSpec spec;
    spec.set("floorplan", "preset:ev6");
    spec.set("power.uniform", "0.5");
    spec.set("config.cooling", "oil");
    const std::uint64_t hash = spec.hash();
    const std::uint64_t stack = spec.stackHash();
    EXPECT_EQ(spec.hashHex(), hashHex(hash));
    EXPECT_EQ(hash, fnv1a64(spec.canonicalSerialization()));

    // A power key moves the scenario hash, not the stack hash, and
    // setting it back restores the first hash.
    spec.set("power.uniform", "0.75");
    EXPECT_NE(spec.hash(), hash);
    EXPECT_EQ(spec.hashHex(), hashHex(spec.hash()));
    EXPECT_EQ(spec.stackHash(), stack);
    spec.set("power.uniform", "0.5");
    EXPECT_EQ(spec.hash(), hash);

    // The display name stays out of both.
    spec.set("name", "renamed");
    EXPECT_EQ(spec.hash(), hash);
    EXPECT_EQ(spec.stackHash(), stack);

    // A config key moves both; a copy and an assigned spec keep the
    // hashes of what they copied, and change with their own set().
    spec.set("config.oil_velocity", "0.2");
    EXPECT_NE(spec.hash(), hash);
    EXPECT_NE(spec.stackHash(), stack);
    ScenarioSpec copy = spec;
    EXPECT_EQ(copy.hash(), spec.hash());
    EXPECT_EQ(copy.stackHash(), spec.stackHash());
    copy.set("config.oil_velocity", "0.3");
    EXPECT_NE(copy.stackHash(), spec.stackHash());
    EXPECT_EQ(copy.hash(), fnv1a64(copy.canonicalSerialization()));
    copy = spec;
    EXPECT_EQ(copy.hash(), spec.hash());
    EXPECT_EQ(copy.stackHash(), spec.stackHash());
}

TEST(ScenarioHash, ThreadsSharingUnhashedSpecsAgree)
{
    // Four threads walk the same never-hashed specs in the same order,
    // so they race to fill each memo and to copy it half-filled.
    std::vector<ScenarioSpec> specs(64);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].set("floorplan", "preset:ev6");
        specs[i].set("config.oil_velocity", std::to_string(i % 8));
        specs[i].set("power.uniform", std::to_string(i));
    }
    std::vector<std::vector<std::uint64_t>> seen(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&specs, &out = seen[t]] {
            for (const ScenarioSpec &spec : specs) {
                const ScenarioSpec copy = spec;
                out.push_back(spec.hash());
                out.push_back(spec.stackHash());
                out.push_back(copy.hash());
                out.push_back(copy.stackHash());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // A spec of only the stack keys hashes the stack hash's bytes.
        ScenarioSpec stackOnly;
        stackOnly.set("floorplan", "preset:ev6");
        stackOnly.set("config.oil_velocity", std::to_string(i % 8));
        const std::uint64_t hash =
            fnv1a64(specs[i].canonicalSerialization());
        for (const std::vector<std::uint64_t> &out : seen) {
            EXPECT_EQ(out[4 * i], hash);
            EXPECT_EQ(out[4 * i + 1], stackOnly.hash());
            EXPECT_EQ(out[4 * i + 2], hash);
            EXPECT_EQ(out[4 * i + 3], stackOnly.hash());
        }
    }
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

TEST(ResultStore, JournalLineKeepsItsBytes)
{
    // Journals and report.json rows are compared byte for byte across
    // builds and worker counts, so every field's text is pinned here:
    // escapes, non-finite numbers, axes and the fabric fields.
    JobResult r;
    r.hash = "0123456789abcdef";
    r.name = "we\"ird\\name\n\t";
    r.status = JobStatus::Failed;
    r.error = "bad \"thing\"\r\n\x01";
    r.errorClass = ErrorClass::Numeric;
    r.attempts = 3;
    r.fallbackTier = 2;
    r.wallSeconds = 1e-300;
    r.peakCelsius = std::numeric_limits<double>::quiet_NaN();
    r.minCelsius = -0.0;
    r.gradientKelvin = std::numeric_limits<double>::infinity();
    r.heatPrimaryWatts = 1e21;
    r.heatSecondaryWatts = 123456789.125;
    r.cgIterations = 99;
    r.warmStarted = true;
    r.resources.cpuSeconds = 0.5;
    r.resources.peakRssDeltaKb = -12;
    r.resources.solverIterations = 7;
    r.resources.retries = 2;
    r.resources.fallbackEscalations = 1;
    r.axisValues = {{"power.uniform", "0.5"}, {"config.\"q\"", "a,b"}};
    r.worker = "w-1";
    r.leaseRenewals = 4;
    r.leaseExpiries = 5;
    r.reLeases = 6;
    r.blockCelsius = {{"A", 1.5}, {"B\"", -2.25e-7}};
    EXPECT_EQ(
        r.toJsonLine(),
        R"({"hash":"0123456789abcdef","name":"we\"ird\\name\n\t",)"
        R"("status":"failed","error":"bad \"thing\"\r\n\u0001",)"
        R"("error_class":"numeric","attempts":3,"fallback_tier":2,)"
        R"("wall_s":1e-300,"peak_c":null,"min_c":-0,"gradient_k":null,)"
        R"("hottest":"","heat_primary_w":1e+21,)"
        R"("heat_secondary_w":123456789.125,"cg_iterations":99,)"
        R"("warm_start":true,"impulse_hit":false,)"
        R"("resources":{"cpu_s":0.5,"rss_delta_kb":-12,)"
        R"("solver_iterations":7,"retries":2,"fallbacks":1},)"
        R"("axes":{"power.uniform":"0.5","config.\"q\"":"a,b"},)"
        R"("worker":"w-1","lease_renewals":4,"lease_expiries":5,)"
        R"("re_leases":6,"blocks":{"A":1.5,"B\"":-2.25e-07}})");
    EXPECT_EQ(
        JobResult{}.toJsonLine(),
        R"({"hash":"","name":"","status":"ok","error":"",)"
        R"("error_class":"none","attempts":1,"fallback_tier":0,)"
        R"("wall_s":0,"peak_c":0,"min_c":0,"gradient_k":0,"hottest":"",)"
        R"("heat_primary_w":0,"heat_secondary_w":0,"cg_iterations":0,)"
        R"("warm_start":false,"impulse_hit":false,)"
        R"("resources":{"cpu_s":0,"rss_delta_kb":0,)"
        R"("solver_iterations":0,"retries":0,"fallbacks":0},"blocks":{}})");
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

TEST(ResultStore, UnterminatedFinalRowIsKeptAndTerminated)
{
    // A kill between a row's bytes and its newline leaves a final
    // line that parses; the next append must not merge into it.
    const std::string dir = freshOutDir("unterminated");
    JobResult r;
    r.hash = "abc";
    r.name = "one";
    {
        ResultStore store(dir);
        store.add(r);
    }
    const std::string path =
        (std::filesystem::path(dir) / "journal.jsonl").string();
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 1);
    {
        ResultStore store(dir);
        EXPECT_EQ(store.loadJournal(), 1u);
        EXPECT_EQ(store.quarantined(), 0u);
        r.hash = "def";
        r.name = "two";
        store.add(r);
    }
    ResultStore reloaded(dir);
    EXPECT_EQ(reloaded.loadJournal(), 2u);
    EXPECT_EQ(reloaded.quarantined(), 0u);
    EXPECT_TRUE(reloaded.has("abc"));
    EXPECT_TRUE(reloaded.has("def"));
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

/** Write a 12-sample EV6 ptrace of square pulses to @p dir and
 *  return its path. */
std::string
writePulseTrace(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    const std::string ptrace = dir + "/pulse.ptrace";
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
    return ptrace;
}

TEST(StackCache, SharingIsTransparentToJournaledRows)
{
    const std::string dir = freshOutDir("stack_transparent");
    const std::string ptrace = writePulseTrace(dir);
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

// ---------------------------------------------------------------
// Job claims: an idle worker starts another stack's build
// ---------------------------------------------------------------

TEST(JobClaims, IdleWorkerTakesAnotherStackWhileOneWarms)
{
    // Two block-mode stacks of 10 superposed jobs each. Stack A's
    // first job stalls before it assembles anything, so A warms for
    // half a second: the other worker must spend it on stack B, not
    // on A's second job (which would build A itself) or on waiting.
    std::vector<std::string> scenarios;
    for (const char *stack : {"A", "B"}) {
        for (int j = 0; j < 10; ++j)
            scenarios.push_back(
                std::string("{\"name\": \"stack") + stack + "-" +
                std::to_string(j) + "\", \"config.r_convec\": " +
                (*stack == 'A' ? "0.2" : "0.4") +
                ", \"power.uniform\": " + std::to_string(0.3 + 0.05 * j) +
                "}");
    }
    std::string text =
        R"({"base": {"floorplan": "preset:ev6", "mode": "steady",
                     "config": {"cooling": "air",
                                "model_mode": "block"}},
            "scenarios": [)";
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        text += (i ? ", " : "") + scenarios[i];
    const SweepPlan plan = SweepPlan::parse(text + "]}", "claims");

    SweepOptions opts;
    opts.outDir = freshOutDir("claims");
    opts.workers = 2;
    ImpulseResponseCache::global().clear();
    const double modelWaits = counterValue("sweep.stack_cache.waits");
    const double impulseWaits =
        counterValue("sweep.impulse_cache.waits");
    FaultInjector::global().arm(
        "job.stall:match=stackA-0:seconds=0.5:count=1");
    const SweepSummary sum = runSweep(plan, opts);
    FaultInjector::global().disarm();
    EXPECT_EQ(sum.ok, 20u);
    EXPECT_EQ(sum.impulseCacheHits, 18u);

    std::ifstream journal(sum.journalPath);
    std::string first;
    ASSERT_TRUE(std::getline(journal, first));
    EXPECT_EQ(JobResult::fromJsonLine(first, "journal").name.rfind(
                  "stackB-", 0),
              0u)
        << first;
    EXPECT_EQ(counterValue("sweep.stack_cache.waits"), modelWaits);
    EXPECT_EQ(counterValue("sweep.impulse_cache.waits"), impulseWaits);
}

TEST(JobClaims, RowsAreBitIdenticalAtAnyWorkerCount)
{
    // Two superposed stacks, each with two transient replays among
    // its steady jobs.
    const std::string ptrace =
        writePulseTrace(freshOutDir("claims_bits"));
    std::vector<std::string> scenarios;
    for (const double v : {6.0, 9.0}) {
        const std::string stack =
            "v" + std::to_string(static_cast<int>(v));
        for (int j = 0; j < 10; ++j) {
            scenarios.push_back(steadyScenario(
                stack + "-" + std::to_string(j), v, 0.3 + 0.05 * j));
            if (j == 3 || j == 6)
                scenarios.push_back(
                    "{\"name\": \"" + stack + "-pulse" +
                    std::to_string(j) + "\", \"config.oil_velocity\": " +
                    std::to_string(v) +
                    ", \"mode\": \"transient\", \"integrator\": "
                    "\"be\", \"ptrace\": \"" + ptrace +
                    "\", \"ptrace.sampling\": " +
                    (j == 3 ? "0.001" : "0.002") + "}");
        }
    }
    const SweepPlan plan =
        SweepPlan::parse(planOf(scenarios), "claims_bits");
    const std::vector<ScenarioSpec> jobs = plan.expand();
    ASSERT_EQ(jobs.size(), 24u);

    // Journaled rows by name, with what may differ between worker
    // counts cleared: timing, resources, worker, impulse_hit.
    std::vector<std::map<std::string, std::string>> runs;
    for (const std::size_t workers : {1u, 2u, 4u}) {
        SweepOptions opts;
        opts.outDir = freshOutDir("claims_bits_w" +
                                  std::to_string(workers));
        opts.workers = workers;
        ImpulseResponseCache::global().clear();
        const SweepSummary sum = runSweep(plan, opts);
        EXPECT_EQ(sum.ok, jobs.size()) << workers << " workers";
        EXPECT_EQ(sum.impulseCacheHits, 18u) << workers << " workers";
        ResultStore store(opts.outDir);
        ASSERT_EQ(store.loadJournal(), jobs.size());
        std::map<std::string, std::string> rows;
        for (const ScenarioSpec &spec : jobs) {
            const JobResult *row = store.findResult(spec.hashHex());
            ASSERT_NE(row, nullptr) << spec.displayName();
            JobResult r = *row;
            r.impulseCacheHit = false;
            rows[spec.displayName()] = campaign::normalizedLine(r);
        }
        runs.push_back(std::move(rows));
    }
    for (std::size_t k = 1; k < runs.size(); ++k) {
        for (const auto &[name, line] : runs[0])
            EXPECT_EQ(runs[k].at(name), line)
                << name << " at run " << k;
    }
}

/** @p line (a journal row) without its wall_s and resources. */
std::string
withoutTiming(std::string line)
{
    const std::size_t wall = line.find(",\"wall_s\":");
    if (wall != std::string::npos)
        line.erase(wall, line.find(',', wall + 1) - wall);
    const std::size_t res = line.find(",\"resources\":{");
    if (res != std::string::npos)
        line.erase(res, line.find('}', res) + 1 - res);
    return line;
}

/** report.csv without its wall_s, cpu_s and rss_delta_kb columns. */
std::vector<std::string>
csvWithoutTiming(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> out;
    std::vector<bool> keep;
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::stringstream ss(line);
        for (std::string cell; std::getline(ss, cell, ',');)
            cells.push_back(cell);
        if (keep.empty()) {
            for (const std::string &c : cells)
                keep.push_back(c != "wall_s" && c != "cpu_s" &&
                               c != "rss_delta_kb");
        }
        std::string row;
        for (std::size_t c = 0; c < cells.size(); ++c)
            if (c >= keep.size() || keep[c])
                row += cells[c] + ",";
        out.push_back(row);
    }
    return out;
}

TEST(SweepReports, MatchAtOneAndFourWorkers)
{
    // Two superposed stacks of 12 jobs. Four workers finish them out
    // of plan order; the reports list them in plan order all the
    // same. A first run fills the impulse cache, so every job of both
    // measured runs is an impulse hit whichever worker gets there
    // first.
    std::vector<std::string> scenarios;
    for (const double v : {6.0, 9.0}) {
        for (int j = 0; j < 12; ++j)
            scenarios.push_back(steadyScenario(
                "v" + std::to_string(static_cast<int>(v)) + "-" +
                    std::to_string(j),
                v, 0.3 + 0.05 * j,
                ", \"power.block.IntReg\": " + std::to_string(1.0 + j)));
    }
    const SweepPlan plan = SweepPlan::parse(planOf(scenarios), "reports");
    ImpulseResponseCache::global().clear();
    SweepOptions prime;
    prime.outDir = freshOutDir("reports_prime");
    prime.workers = 1;
    ASSERT_EQ(runSweep(plan, prime).ok, 24u);

    std::vector<std::vector<std::string>> csvs;
    std::vector<std::string> jsons;
    for (const std::size_t workers : {1u, 4u}) {
        SweepOptions opts;
        opts.outDir =
            freshOutDir("reports_w" + std::to_string(workers));
        opts.workers = workers;
        const SweepSummary sum = runSweep(plan, opts);
        ASSERT_EQ(sum.ok, 24u) << workers << " workers";
        EXPECT_EQ(sum.impulseCacheHits, 24u) << workers << " workers";

        std::map<std::string, std::string> journaled;
        std::ifstream journal(sum.journalPath);
        for (std::string line; std::getline(journal, line);)
            journaled[JobResult::fromJsonLine(line, "journal").hash] = line;
        ASSERT_EQ(journaled.size(), 24u);

        // Every report.json row is its journal line, byte for byte.
        std::ifstream json(sum.jsonPath);
        std::string text, line;
        std::size_t rows = 0;
        while (std::getline(json, line)) {
            const std::size_t brace = line.find("{\"hash\"");
            if (brace != std::string::npos) {
                std::string row = line.substr(brace);
                if (row.back() == ',')
                    row.pop_back();
                const JobResult r = JobResult::fromJsonLine(row, "report");
                EXPECT_EQ(row, journaled.at(r.hash)) << r.name;
                ++rows;
                line = line.substr(0, brace) + withoutTiming(row) +
                       (line.back() == ',' ? "," : "");
            }
            text += line + "\n";
        }
        EXPECT_EQ(rows, 24u);
        jsons.push_back(text);
        csvs.push_back(csvWithoutTiming(sum.csvPath));
        EXPECT_EQ(csvs.back().size(), 25u);
    }
    EXPECT_EQ(csvs[0], csvs[1]);
    EXPECT_EQ(jsons[0], jsons[1]);
}

} // namespace
} // namespace irtherm::sweep
