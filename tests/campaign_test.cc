/**
 * @file
 * Fault-campaign tests: the bit-replayable SplitMix64 stream, the
 * fault-point catalog, plan/fault-spec generation, cycle-spec
 * determinism, whole-campaign replays, one real multi-process
 * kill-and-resume cycle through all five invariants, and the
 * SIGTERM drain contract of `irtherm_cli sweep`.
 *
 * Tests that spawn processes use IRTHERM_CLI_PATH (a compile
 * definition pointing at the build's irtherm_cli) and skip when the
 * binary is missing, so the suite still runs from unusual build
 * layouts.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/rng.hh"
#include "campaign/driver.hh"
#include "campaign/fault_gen.hh"
#include "campaign/plan_gen.hh"
#include "sweep/result_store.hh"

#ifndef IRTHERM_CLI_PATH
#define IRTHERM_CLI_PATH ""
#endif

namespace irtherm
{
namespace
{

/**
 * Fresh per-test output directory under the gtest temp root. The
 * process id keeps two suites run at once (two build trees on one
 * machine) out of each other's directories.
 */
std::string
freshOutDir(const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("irtherm_campaign_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** The build's irtherm_cli, or "" when it is not executable. */
std::string
cliPath()
{
    const std::string path = IRTHERM_CLI_PATH;
    if (!path.empty() && ::access(path.c_str(), X_OK) == 0)
        return path;
    return "";
}

/** Parsable journal rows, in file order. */
std::vector<sweep::JobResult>
journalRows(const std::string &dir)
{
    std::vector<sweep::JobResult> rows;
    std::ifstream in(
        (std::filesystem::path(dir) / "journal.jsonl").string());
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (!line.empty())
            rows.push_back(sweep::JobResult::fromJsonLine(
                line, "journal line " + std::to_string(lineno)));
    }
    return rows;
}

const campaign::InvariantCheck *
findCheck(const campaign::InvariantReport &report,
          const std::string &prefix)
{
    for (const campaign::InvariantCheck &c : report.checks)
        if (c.name.compare(0, prefix.size(), prefix) == 0)
            return &c;
    return nullptr;
}

// ---------------------------------------------------------------
// SplitMix64: the replayability foundation
// ---------------------------------------------------------------

TEST(SplitMix64, MatchesReferenceVectors)
{
    // Known-answer vectors for the canonical splitmix64 (Steele/
    // Lea/Flood); any deviation breaks cross-machine seed replay.
    SplitMix64 rng(0);
    EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(rng.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(rng.next(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, DerivedDrawsStayInBounds)
{
    SplitMix64 rng(0x5eedULL);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const std::uint64_t r = rng.range(3, 7);
        EXPECT_GE(r, 3u);
        EXPECT_LE(r, 7u);
        EXPECT_LT(rng.index(5), 5u);
        const double v = rng.uniform(0.2, 1.2);
        EXPECT_GE(v, 0.2);
        EXPECT_LT(v, 1.2);
    }
}

TEST(SplitMix64, ChildStreamsIgnoreParentDrawPosition)
{
    // child(n) must derive from the construction seed, not the
    // current state: a campaign cycle is a pure function of
    // (seed, index) no matter how many cycles ran before it.
    SplitMix64 fresh(42);
    SplitMix64 advanced(42);
    for (int i = 0; i < 17; ++i)
        advanced.next();
    SplitMix64 a = fresh.child(3);
    SplitMix64 b = advanced.child(3);
    EXPECT_EQ(a.seed(), b.seed());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
    // Distinct children are distinct streams.
    SplitMix64 c = fresh.child(4);
    EXPECT_NE(c.seed(), a.seed());
}

// ---------------------------------------------------------------
// The fault-point catalog
// ---------------------------------------------------------------

TEST(FaultCatalog, EveryPointCarriesFullMetadata)
{
    const std::vector<FaultPoint> &points =
        FaultInjector::knownPoints();
    EXPECT_EQ(points.size(), 14u);
    std::set<std::string> names;
    for (const FaultPoint &p : points) {
        EXPECT_NE(p.name, nullptr);
        ASSERT_TRUE(p.name && p.layer && p.effect && p.recovery);
        EXPECT_GT(std::string(p.layer).size(), 0u) << p.name;
        EXPECT_GT(std::string(p.effect).size(), 0u) << p.name;
        EXPECT_GT(std::string(p.recovery).size(), 0u) << p.name;
        names.insert(p.name);
    }
    EXPECT_EQ(names.size(), points.size()) << "duplicate point name";
    // This PR's additions are in the catalog.
    EXPECT_EQ(names.count(faultpoint::CacheCorrupt), 1u);
    EXPECT_EQ(names.count(faultpoint::CkptCorrupt), 1u);
    EXPECT_EQ(names.count(faultpoint::CholCorrupt), 1u);
}

TEST(FaultCatalog, UnknownPointErrorNamesTheCatalog)
{
    FaultInjector inj;
    try {
        inj.arm("warp.core.breach:count=1");
        FAIL() << "arm() accepted an unknown point";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("warp.core.breach"), std::string::npos);
        EXPECT_NE(msg.find("known points"), std::string::npos);
        // The list is the live catalog, not a stale copy.
        for (const FaultPoint &p : FaultInjector::knownPoints())
            EXPECT_NE(msg.find(p.name), std::string::npos)
                << p.name;
    }
    EXPECT_FALSE(inj.armed());
}

// ---------------------------------------------------------------
// Generators: same stream position -> identical bytes
// ---------------------------------------------------------------

TEST(CampaignGen, PlansAreBitReplayableAndValid)
{
    for (const bool fleetSafe : {false, true}) {
        SplitMix64 a(0xabcdef12345ULL), b(0xabcdef12345ULL);
        for (int i = 0; i < 20; ++i) {
            const campaign::GeneratedPlan pa =
                campaign::generatePlan(a, fleetSafe);
            const campaign::GeneratedPlan pb =
                campaign::generatePlan(b, fleetSafe);
            EXPECT_EQ(pa.json, pb.json);
            EXPECT_EQ(pa.fleetSafe, fleetSafe);
            // The embedded parsed plan matches its own JSON.
            const sweep::SweepPlan reparsed =
                sweep::SweepPlan::parse(pa.json, "regen");
            EXPECT_EQ(reparsed.jobCount(), pa.plan.jobCount());
            EXPECT_GE(pa.plan.jobCount(), 2u);
            if (fleetSafe) {
                // Config-only axes: every job on a distinct stack.
                std::set<std::string> hashes;
                for (const sweep::ScenarioSpec &spec :
                     pa.plan.expand())
                    hashes.insert(spec.hashHex());
                EXPECT_EQ(hashes.size(), pa.plan.jobCount());
            }
        }
    }
}

TEST(CampaignGen, FaultSpecsAreBitReplayableAndArmable)
{
    std::vector<const char *> eligible;
    for (const FaultPoint &p : FaultInjector::knownPoints())
        eligible.push_back(p.name);
    SplitMix64 a(99), b(99);
    for (int i = 0; i < 50; ++i) {
        const std::string sa =
            campaign::generateFaultSpec(a, eligible);
        const std::string sb =
            campaign::generateFaultSpec(b, eligible);
        EXPECT_EQ(sa, sb);
        EXPECT_FALSE(sa.empty());
        // Round-trips through the real arm() grammar.
        FaultInjector inj;
        EXPECT_NO_THROW(inj.arm(sa)) << sa;
    }
}

TEST(CampaignGen, CycleSpecsAreDeterministicAndInRange)
{
    campaign::CampaignOptions opts;
    opts.seed = 0xfeedULL;
    opts.cliPath = "/nonexistent/irtherm_cli"; // fleet kind allowed
    for (std::size_t i = 0; i < 12; ++i) {
        const campaign::CycleSpec s1 =
            campaign::makeCycleSpec(opts, i);
        const campaign::CycleSpec s2 =
            campaign::makeCycleSpec(opts, i);
        EXPECT_EQ(s1.kind, s2.kind);
        EXPECT_EQ(s1.plan.json, s2.plan.json);
        EXPECT_EQ(s1.faultSpec, s2.faultSpec);
        EXPECT_EQ(s1.useCache, s2.useCache);
        EXPECT_EQ(s1.segmentJobs, s2.segmentJobs);
        EXPECT_EQ(s1.stopAfter, s2.stopAfter);
        EXPECT_EQ(s1.port, s2.port);
        EXPECT_EQ(s1.workers, s2.workers);
        EXPECT_EQ(s1.killCoordinator, s2.killCoordinator);
        EXPECT_EQ(s1.victimWorker, s2.victimWorker);
        EXPECT_EQ(s1.killDelaySeconds, s2.killDelaySeconds);

        const std::size_t jobs = s1.plan.plan.jobCount();
        EXPECT_GE(jobs, 2u);
        EXPECT_GE(s1.segmentJobs, 2u);
        EXPECT_LE(s1.segmentJobs, 4u);
        EXPECT_GE(s1.stopAfter, 1u);
        EXPECT_LT(s1.stopAfter, jobs);
        EXPECT_GE(s1.port, 20000);
        EXPECT_LT(s1.port, 40000);
        EXPECT_GE(s1.workers, 1u);
        EXPECT_LE(s1.workers, 3u);
        EXPECT_LT(s1.victimWorker, s1.workers);
        EXPECT_GE(s1.killDelaySeconds, 0.2);
        EXPECT_LT(s1.killDelaySeconds, 1.2);
        if (s1.kind == campaign::CycleKind::MultiProcess) {
            EXPECT_TRUE(s1.plan.fleetSafe);
            EXPECT_TRUE(s1.useCache);
        }
    }
}

// ---------------------------------------------------------------
// Whole campaigns
// ---------------------------------------------------------------

TEST(Campaign, InProcessCampaignReplaysToIdenticalVerdicts)
{
    campaign::CampaignOptions opts;
    opts.seed = 7;
    opts.cycles = 2;
    opts.forceKind = 0; // in-process only

    opts.outDir = freshOutDir("replay_a");
    const campaign::CampaignSummary first =
        campaign::runCampaign(opts);
    opts.outDir = freshOutDir("replay_b");
    const campaign::CampaignSummary second =
        campaign::runCampaign(opts);

    EXPECT_TRUE(first.passed()) << "seed 7 must pass: it is the CI "
                                   "smoke seed";
    ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
    for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
        const campaign::CycleOutcome &a = first.outcomes[i];
        const campaign::CycleOutcome &b = second.outcomes[i];
        // The generated inputs replay byte for byte...
        EXPECT_EQ(a.spec.plan.json, b.spec.plan.json);
        EXPECT_EQ(a.spec.faultSpec, b.spec.faultSpec);
        EXPECT_EQ(a.spec.stopAfter, b.spec.stopAfter);
        // ...and so do the verdicts.
        EXPECT_EQ(a.passed, b.passed);
        ASSERT_EQ(a.report.checks.size(), b.report.checks.size());
        for (std::size_t c = 0; c < a.report.checks.size(); ++c) {
            EXPECT_EQ(a.report.checks[c].name,
                      b.report.checks[c].name);
            EXPECT_EQ(a.report.checks[c].passed,
                      b.report.checks[c].passed);
        }
    }
}

TEST(Campaign, MultiProcessKillAndResumePassesAllInvariants)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "irtherm_cli not built next to the tests";

    campaign::CampaignOptions opts;
    opts.seed = 11;
    opts.cycles = 1;
    opts.forceKind = 1; // multi-process only
    opts.cliPath = cli;
    opts.outDir = freshOutDir("fleet");

    const campaign::CampaignSummary summary =
        campaign::runCampaign(opts);
    ASSERT_EQ(summary.outcomes.size(), 1u);
    const campaign::CycleOutcome &oc = summary.outcomes[0];
    EXPECT_TRUE(oc.error.empty()) << oc.error;
    EXPECT_TRUE(oc.passed) << oc.report.summary();

    // A fleet cycle must exercise all five invariants, not skip any.
    for (const char *name :
         {"zero-duplicate-work", "journaled-ok-preserved",
          "aggregate-replay", "cache-bit-identity",
          "disarmed-replay("}) {
        const campaign::InvariantCheck *check =
            findCheck(oc.report, name);
        ASSERT_NE(check, nullptr) << name;
        EXPECT_TRUE(check->passed)
            << check->name << ": " << check->detail;
    }
    // And the distributed journal matched a single-process
    // reference row for row.
    const campaign::InvariantCheck *fleetRef =
        findCheck(oc.report, "fleet-matches-local-reference");
    ASSERT_NE(fleetRef, nullptr);
    EXPECT_TRUE(fleetRef->passed) << fleetRef->detail;
}

// ---------------------------------------------------------------
// SIGTERM drain (satellite of the campaign: the graceful half of
// kill-and-resume, asserted directly against irtherm_cli)
// ---------------------------------------------------------------

/** Spawn irtherm_cli with @p args; stdout+stderr -> @p logPath. */
pid_t
spawnCli(const std::string &cli,
         const std::vector<std::string> &args,
         const std::string &logPath)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    const int fd = ::open(logPath.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
    }
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(cli.c_str()));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(cli.c_str(), argv.data());
    ::_exit(127);
}

/** Complete ('\n'-terminated) journal lines right now. */
std::size_t
completeJournalLines(const std::string &dir)
{
    std::ifstream in(
        (std::filesystem::path(dir) / "journal.jsonl").string(),
        std::ios::binary);
    std::size_t lines = 0;
    char c;
    while (in.get(c))
        if (c == '\n')
            ++lines;
    return lines;
}

TEST(SweepDrain, SigtermFlushesJournalSealsSegmentsAndResumes)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "irtherm_cli not built next to the tests";

    const std::string dir = freshOutDir("sigterm");
    const std::string out =
        (std::filesystem::path(dir) / "sweep_out").string();
    const std::string planPath =
        (std::filesystem::path(dir) / "plan.json").string();
    {
        std::ofstream plan(planPath);
        plan << R"({"name": "drain",
                    "base": {"floorplan": "preset:ev6"},
                    "axes": {"power.uniform":
                             [0.31, 0.32, 0.33, 0.34, 0.35, 0.36]}})";
    }

    // The first two jobs run at full speed; every later one stalls
    // half a second, holding the sweep open long enough to SIGTERM
    // it with two rows journaled and one segment sealed.
    const pid_t pid = spawnCli(
        cli,
        {"sweep", planPath, "--out", out, "--jobs", "1",
         "--segment-jobs", "2", "--faults",
         "job.stall:after=2:count=100:seconds=0.5"},
        (std::filesystem::path(dir) / "armed.log").string());
    ASSERT_GT(pid, 0);

    bool childExited = false;
    for (int i = 0; i < 1000; ++i) {
        if (completeJournalLines(out) >= 2)
            break;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            childExited = true;
            break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }
    ASSERT_FALSE(childExited)
        << "sweep finished before SIGTERM could land mid-sweep";

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // The drain is cooperative: a normal exit, not a signal death.
    ASSERT_TRUE(WIFEXITED(status));

    // Journal flushed: every line parses; the drain stopped early.
    const std::vector<sweep::JobResult> drained = journalRows(out);
    EXPECT_GE(drained.size(), 2u);
    EXPECT_LT(drained.size(), 6u);

    // Segments sealed: at least one .seg, and no torn temp files.
    const std::filesystem::path segDir =
        std::filesystem::path(out) / "segments";
    std::size_t sealed = 0;
    if (std::filesystem::exists(segDir)) {
        for (const auto &e :
             std::filesystem::directory_iterator(segDir)) {
            const std::string ext = e.path().extension().string();
            EXPECT_NE(ext, ".tmp") << e.path();
            if (ext == ".seg")
                ++sealed;
        }
    }
    EXPECT_GE(sealed, 1u);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(out) / "aggregates.ckpt"));

    // Resume (disarmed) completes the plan with zero duplicates.
    const pid_t resume = spawnCli(
        cli,
        {"sweep", planPath, "--out", out, "--jobs", "1",
         "--segment-jobs", "2", "--resume"},
        (std::filesystem::path(dir) / "resume.log").string());
    ASSERT_GT(resume, 0);
    ASSERT_EQ(::waitpid(resume, &status, 0), resume);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    const std::vector<sweep::JobResult> rows = journalRows(out);
    EXPECT_EQ(rows.size(), 6u);
    std::set<std::string> hashes;
    for (const sweep::JobResult &r : rows) {
        EXPECT_EQ(r.status, sweep::JobStatus::Ok) << r.name;
        hashes.insert(r.hash);
    }
    EXPECT_EQ(hashes.size(), 6u) << "duplicate journal rows";
}

} // namespace
} // namespace irtherm
