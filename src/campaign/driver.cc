#include "campaign/driver.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "campaign/fault_gen.hh"
#include "fabric/http_client.hh"
#include "fabric/result_cache.hh"
#include "obs/export.hh"
#include "obs/span.hh"
#include "sweep/runner.hh"

extern char **environ;

namespace irtherm::campaign
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

void
sleepSeconds(double s)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/** Arm the process-global injector for a scope; disarm on exit. */
class ArmedFaults
{
  public:
    explicit ArmedFaults(const std::string &spec)
    {
        FaultInjector::global().arm(spec);
    }
    ~ArmedFaults() { FaultInjector::global().disarm(); }
    ArmedFaults(const ArmedFaults &) = delete;
    ArmedFaults &operator=(const ArmedFaults &) = delete;
};

// -----------------------------------------------------------------
// Child-process plumbing for multi-process cycles
// -----------------------------------------------------------------

struct ChildProc
{
    pid_t pid = -1;
    std::string name;
    bool running = false;
    int status = 0;
};

/** Spawn @p argv with stdout+stderr appended to @p logPath and
 *  IRTHERM_FAULTS set to @p faults (cleared when empty). */
ChildProc
spawnChild(const std::vector<std::string> &argvStrs,
           const std::string &name, const std::string &logPath,
           const std::string &faults)
{
    std::vector<char *> argv;
    argv.reserve(argvStrs.size() + 1);
    for (const std::string &s : argvStrs)
        argv.push_back(const_cast<char *>(s.c_str()));
    argv.push_back(nullptr);

    std::vector<std::string> envStrs;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "IRTHERM_FAULTS=", 15) == 0)
            continue;
        envStrs.emplace_back(*e);
    }
    if (!faults.empty())
        envStrs.push_back("IRTHERM_FAULTS=" + faults);
    std::vector<char *> envp;
    envp.reserve(envStrs.size() + 1);
    for (const std::string &s : envStrs)
        envp.push_back(const_cast<char *>(s.c_str()));
    envp.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(
        &fa, 1, logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND,
        0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);

    ChildProc child;
    child.name = name;
    const int rc =
        ::posix_spawn(&child.pid, argvStrs[0].c_str(), &fa,
                      nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        ioError("campaign: cannot spawn '", argvStrs[0],
                "': ", std::strerror(rc));
    child.running = true;
    return child;
}

/** Reap-if-exited; returns true while the child is still running. */
bool
pollChild(ChildProc &c)
{
    if (!c.running)
        return false;
    int status = 0;
    const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
    if (r == c.pid) {
        c.running = false;
        c.status = status;
    }
    return c.running;
}

void
killChild(ChildProc &c, int sig = SIGKILL)
{
    if (c.running)
        ::kill(c.pid, sig);
}

/** Blocking reap. */
void
reapChild(ChildProc &c)
{
    if (!c.running)
        return;
    int status = 0;
    ::waitpid(c.pid, &status, 0);
    c.status = status;
    c.running = false;
}

/** True once GET /healthz on @p port answers 200; false if the
 *  coordinator exits or @p timeoutSeconds passes first. */
bool
waitHealthz(int port, ChildProc &coord, double timeoutSeconds)
{
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < timeoutSeconds) {
        if (!pollChild(coord))
            return false;
        try {
            const fabric::HttpReply r = fabric::httpRequest(
                "127.0.0.1", port, "GET", "/healthz", "", 2.0);
            if (r.status == 200)
                return true;
        } catch (const FatalError &) {
            // Not listening yet.
        }
        sleepSeconds(0.1);
    }
    return false;
}

/**
 * Wait for the fleet to drain. The kill schedule (victim + delay)
 * runs inside this loop. A coordinator that outlives every worker by
 * @p orphanGraceSeconds can never finish (nobody is left to lease
 * jobs), so it is killed — exactly the crash the resume phase
 * exists to recover from. @p deadlineSeconds is the hard watchdog;
 * returns false if it fired.
 */
bool
waitFleet(ChildProc &coordinator, std::vector<ChildProc> &workers,
          ChildProc *victim, double killDelaySeconds,
          double deadlineSeconds, double orphanGraceSeconds = 8.0)
{
    const Clock::time_point start = Clock::now();
    bool killed = victim == nullptr;
    double workersGoneAt = -1.0;
    while (true) {
        const double elapsed = secondsSince(start);
        if (!killed && elapsed >= killDelaySeconds) {
            inform("campaign: SIGKILL -> ", victim->name);
            IRTHERM_EVENT("campaign.kill", {"victim", victim->name},
                          {"after_s", elapsed});
            killChild(*victim);
            killed = true;
        }
        bool anyRunning = pollChild(coordinator);
        bool workersAlive = false;
        for (ChildProc &w : workers) {
            if (pollChild(w))
                workersAlive = anyRunning = true;
        }
        if (!anyRunning)
            return true;
        if (elapsed > deadlineSeconds) {
            warn("campaign: fleet watchdog fired after ",
                 deadlineSeconds, " s; killing survivors");
            killChild(coordinator);
            for (ChildProc &w : workers)
                killChild(w);
            reapChild(coordinator);
            for (ChildProc &w : workers)
                reapChild(w);
            return false;
        }
        if (coordinator.running && !workersAlive) {
            if (workersGoneAt < 0.0) {
                workersGoneAt = elapsed;
            } else if (elapsed - workersGoneAt >
                       orphanGraceSeconds) {
                inform("campaign: coordinator orphaned (all "
                       "workers gone); killing it");
                killChild(coordinator);
                reapChild(coordinator);
            }
        } else {
            workersGoneAt = -1.0;
        }
        sleepSeconds(0.05);
    }
}

/** Launch a coordinator process and wait until it serves /healthz.
 *  Retries on nearby ports (bind collisions with unrelated
 *  processes); the retry offset is deterministic, not drawn. */
ChildProc
startCoordinator(const CampaignOptions &opts,
                 const CycleSpec &spec, const std::string &dir,
                 int basePort, bool resume,
                 const std::string &faults, int *boundPort)
{
    const std::string planPath =
        (std::filesystem::path(dir) / "plan.json").string();
    const std::string fleetDir =
        (std::filesystem::path(dir) / "fleet").string();
    const std::string cacheDir =
        (std::filesystem::path(dir) / "cache").string();
    for (int attempt = 0; attempt < 5; ++attempt) {
        const int port = basePort + attempt * 17;
        std::vector<std::string> argv = {
            opts.cliPath,
            "sweep",
            planPath,
            "--out",
            fleetDir,
            "--coordinate",
            std::to_string(port),
            "--lease-ttl",
            "2",
            "--lease-jobs",
            "2",
            "--segment-jobs",
            std::to_string(spec.segmentJobs),
            "--cache",
            cacheDir,
        };
        if (resume)
            argv.push_back("--resume");
        ChildProc coord = spawnChild(
            argv, resume ? "coordinator-resume" : "coordinator",
            (std::filesystem::path(dir) /
             (resume ? "coordinator_resume.log"
                     : "coordinator.log"))
                .string(),
            faults);
        if (waitHealthz(port, coord, 20.0)) {
            *boundPort = port;
            return coord;
        }
        if (coord.running) {
            killChild(coord);
            reapChild(coord);
        } else if (resume && WIFEXITED(coord.status)) {
            // A resume coordinator with nothing left to serve can
            // finish before /healthz answers; that is a completed
            // run, not a bind failure.
            *boundPort = port;
            return coord;
        }
        warn("campaign: coordinator did not serve on port ", port,
             "; retrying");
    }
    ioError("campaign: coordinator failed to start after 5 port "
            "attempts");
}

ChildProc
startWorker(const CampaignOptions &opts, const std::string &dir,
            int port, const std::string &name,
            const std::string &faults)
{
    const std::vector<std::string> argv = {
        opts.cliPath, "worker",           "--connect",
        "127.0.0.1:" + std::to_string(port), "--name", name,
    };
    return spawnChild(
        argv, name,
        (std::filesystem::path(dir) / (name + ".log")).string(),
        faults);
}

// -----------------------------------------------------------------
// Cycle execution
// -----------------------------------------------------------------

sweep::SweepOptions
baseSweepOptions(const std::string &outDir,
                 const CycleSpec &spec)
{
    sweep::SweepOptions so;
    so.outDir = outDir;
    so.workers = 1;
    so.segmentJobs = spec.segmentJobs;
    so.writeReports = false;
    return so;
}

void
attachCache(sweep::SweepOptions &so, fabric::ResultCache *cache,
            bool store)
{
    so.sharedCacheLookup = [cache](const std::string &hash,
                                   sweep::JobResult &out) {
        return cache->lookup(hash, out);
    };
    if (store) {
        so.sharedCacheStore = [cache](const sweep::JobResult &r) {
            cache->store(r);
        };
    }
}

/** The two disarmed single-worker reference runs plus the
 *  bit-identity verdict (I5). Returns ref_a's rows. */
std::map<std::string, sweep::JobResult>
runReferencePair(const CycleSpec &spec, const std::string &dir,
                 InvariantReport &report)
{
    std::map<std::string, sweep::JobResult> rowsA;
    for (const char *tag : {"ref_a", "ref_b"}) {
        const std::string refDir =
            (std::filesystem::path(dir) / tag).string();
        sweep::SweepOptions so = baseSweepOptions(refDir, spec);
        sweep::runSweep(spec.plan.plan, so);
        if (std::strcmp(tag, "ref_a") == 0)
            rowsA = loadJournalRows(refDir);
    }
    const auto rowsB = loadJournalRows(
        (std::filesystem::path(dir) / "ref_b").string());
    checkBitIdenticalReplay(rowsA, rowsB, "ref_a-vs-ref_b",
                            report);
    return rowsA;
}

/** I4 when the cycle had a shared cache: entries must match the
 *  journal, and a fresh run with lookup enabled must be answered
 *  from the cache. */
void
checkSharedCache(const CycleSpec &spec, const std::string &dir,
                 fabric::ResultCache *cache,
                 const std::map<std::string, sweep::JobResult>
                     &finalRows,
                 InvariantReport &report)
{
    const std::string cacheDir =
        (std::filesystem::path(dir) / "cache").string();
    checkCacheBitIdentity(cacheDir, finalRows, report);

    const std::string rerunDir =
        (std::filesystem::path(dir) / "cache_rerun").string();
    sweep::SweepOptions so = baseSweepOptions(rerunDir, spec);
    attachCache(so, cache, /*store=*/false);
    const sweep::SweepSummary sum =
        sweep::runSweep(spec.plan.plan, so);
    report.add("cache-serves-hits", sum.sharedCacheHits > 0,
               std::to_string(sum.sharedCacheHits) + " of " +
                   std::to_string(sum.total) +
                   " jobs answered from the shared cache");
}

void
runInProcessCycle(const CycleSpec &spec, const std::string &dir,
                  CycleOutcome &outcome)
{
    const std::string runDir =
        (std::filesystem::path(dir) / "run").string();
    std::unique_ptr<fabric::ResultCache> cache;
    if (spec.useCache)
        cache = std::make_unique<fabric::ResultCache>(
            (std::filesystem::path(dir) / "cache").string());

    sweep::SweepOptions so = baseSweepOptions(runDir, spec);
    if (cache)
        attachCache(so, cache.get(), /*store=*/true);

    std::map<std::string, sweep::JobResult> midRows;
    {
        ArmedFaults armed(spec.faultSpec);
        obs::ScopedSpan phase("campaign.phase.armed");
        phase.attr("faults", spec.faultSpec);
        // Armed phase A: run partway and "die".
        sweep::SweepOptions a = so;
        a.stopAfter = spec.stopAfter;
        sweep::runSweep(spec.plan.plan, a);
        midRows = loadJournalRows(runDir);
        // Armed phase B: resume WITH faults still firing — the
        // resume protocol itself (checkpoint parse, segment reads,
        // journal appends) is inside the blast radius.
        IRTHERM_EVENT("campaign.resume", {"armed", "true"});
        sweep::SweepOptions b = so;
        b.resume = true;
        sweep::runSweep(spec.plan.plan, b);
    }
    // Disarmed resume to completion.
    IRTHERM_EVENT("campaign.resume", {"armed", "false"});
    sweep::SweepOptions c = so;
    {
        obs::ScopedSpan phase("campaign.phase.resume");
        c.resume = true;
        sweep::runSweep(spec.plan.plan, c);
    }

    obs::ScopedSpan verify("campaign.phase.verify");
    const auto finalRows = loadJournalRows(runDir);
    InvariantReport &report = outcome.report;
    report.add("journal-complete",
               finalRows.size() == spec.plan.plan.jobCount(),
               std::to_string(finalRows.size()) + " of " +
                   std::to_string(spec.plan.plan.jobCount()) +
                   " jobs journaled after resume");
    checkNoDuplicateWork(runDir, report);
    checkJournaledOkPreserved(midRows, finalRows, report);
    checkAggregateReplay(runDir, report);
    if (cache)
        checkSharedCache(spec, dir, cache.get(), finalRows,
                         report);
    else
        report.add("cache-bit-identity", true,
                   "no shared cache this cycle (not exercised)");
    runReferencePair(spec, dir, report);
}

void
runFleetCycle(const CampaignOptions &opts, const CycleSpec &spec,
              const std::string &dir, CycleOutcome &outcome)
{
    const std::string fleetDir =
        (std::filesystem::path(dir) / "fleet").string();
    {
        std::ofstream plan(
            (std::filesystem::path(dir) / "plan.json").string());
        plan << spec.plan.json;
    }

    // Armed phase: real processes, fault spec in every child's
    // environment, SIGKILL on a schedule.
    std::map<std::string, sweep::JobResult> midRows;
    {
        obs::ScopedSpan phase("campaign.phase.armed-fleet");
        phase.attr("faults", spec.faultSpec);
        phase.attr("workers", static_cast<double>(spec.workers));
        int port = 0;
        ChildProc coordinator =
            startCoordinator(opts, spec, dir, spec.port,
                             /*resume=*/false, spec.faultSpec, &port);
        std::vector<ChildProc> workers;
        for (std::size_t i = 0; i < spec.workers; ++i)
            workers.push_back(startWorker(opts, dir, port,
                                          "w" + std::to_string(i),
                                          spec.faultSpec));
        IRTHERM_EVENT("campaign.spawn",
                      {"workers", static_cast<double>(spec.workers)},
                      {"port", static_cast<double>(port)});
        ChildProc *victim = spec.killCoordinator
                                ? &coordinator
                                : &workers[spec.victimWorker %
                                           workers.size()];
        waitFleet(coordinator, workers, victim,
                  spec.killDelaySeconds, 90.0);

        midRows = loadJournalRows(fleetDir);
    }

    // Disarmed resume fleet: a fresh coordinator picks up the
    // journal; two fresh workers finish the remainder.
    bool drained = false;
    {
        obs::ScopedSpan phase("campaign.phase.resume-fleet");
        IRTHERM_EVENT("campaign.resume", {"armed", "false"});
        int resumePort = 0;
        ChildProc resumeCoord = startCoordinator(
            opts, spec, dir, spec.port + 1000, /*resume=*/true, "",
            &resumePort);
        std::vector<ChildProc> resumeWorkers;
        if (resumeCoord.running) {
            for (std::size_t i = 0; i < 2; ++i)
                resumeWorkers.push_back(
                    startWorker(opts, dir, resumePort,
                                "r" + std::to_string(i), ""));
        }
        drained = waitFleet(resumeCoord, resumeWorkers,
                            nullptr, 0.0, 120.0);
    }
    if (!drained) {
        outcome.error = "resume fleet did not drain before the "
                        "watchdog deadline";
        return;
    }

    obs::ScopedSpan verify("campaign.phase.verify");
    const auto finalRows = loadJournalRows(fleetDir);
    InvariantReport &report = outcome.report;
    report.add("journal-complete",
               finalRows.size() == spec.plan.plan.jobCount(),
               std::to_string(finalRows.size()) + " of " +
                   std::to_string(spec.plan.plan.jobCount()) +
                   " jobs journaled after resume");
    checkNoDuplicateWork(fleetDir, report);
    checkJournaledOkPreserved(midRows, finalRows, report);
    checkAggregateReplay(fleetDir, report);

    fabric::ResultCache cache(
        (std::filesystem::path(dir) / "cache").string());
    checkSharedCache(spec, dir, &cache, finalRows, report);

    const auto refRows = runReferencePair(spec, dir, report);

    // Fleet-specific teeth: rows the fleet executed cleanly (one
    // attempt, no fallback) must be bit-identical to the local
    // single-worker reference — a distributed run is just a faster
    // way to compute the same numbers.
    std::size_t compared = 0;
    std::string issues;
    for (const auto &[hash, row] : finalRows) {
        if (row.status != sweep::JobStatus::Ok ||
            row.attempts != 1 || row.fallbackTier != 0)
            continue;
        const auto it = refRows.find(hash);
        if (it == refRows.end()) {
            issues += (issues.empty() ? "" : "; ") + hash +
                      " missing from the reference run";
            continue;
        }
        ++compared;
        if (normalizedLine(row) != normalizedLine(it->second))
            issues += (issues.empty() ? "" : "; ") + hash +
                      " differs from the reference run";
    }
    std::string detail =
        std::to_string(compared) +
        " clean fleet rows compared against the local reference";
    if (!issues.empty())
        detail += "; " + issues;
    report.add("fleet-matches-local-reference",
               issues.empty() && compared > 0, detail);
}

void
writeRepro(const CampaignOptions &opts, const CycleOutcome &oc)
{
    std::ofstream repro(
        (std::filesystem::path(oc.dir) / "repro.txt").string());
    repro << "irtherm fault campaign failure\n";
    repro << "seed:  " << opts.seed << "\n";
    repro << "cycle: " << oc.spec.index << " ("
          << (oc.spec.kind == CycleKind::InProcess
                  ? "in-process"
                  : "multi-process")
          << ")\n";
    repro << "fault spec: " << oc.spec.faultSpec << "\n";
    if (!oc.error.empty())
        repro << "error: " << oc.error << "\n";
    repro << "invariants:\n" << oc.report.summary();
    repro << "\nreplay exactly this cycle with:\n";
    repro << "  irtherm_campaign --seed " << opts.seed
          << " --cycles " << (oc.spec.index + 1)
          << " --only-cycle " << oc.spec.index;
    if (!opts.cliPath.empty())
        repro << " --cli " << opts.cliPath;
    repro << "\n\ngenerated plan:\n" << oc.spec.plan.json;
}

} // namespace

CycleSpec
makeCycleSpec(const CampaignOptions &opts, std::size_t index)
{
    SplitMix64 rng = SplitMix64(opts.seed).child(index);
    CycleSpec spec;
    spec.index = index;

    if (opts.forceKind == 0) {
        spec.kind = CycleKind::InProcess;
    } else if (opts.forceKind == 1) {
        spec.kind = CycleKind::MultiProcess;
    } else if (opts.cliPath.empty()) {
        spec.kind = CycleKind::InProcess;
    } else {
        spec.kind = rng.chance(0.3) ? CycleKind::MultiProcess
                                    : CycleKind::InProcess;
    }
    const bool fleet = spec.kind == CycleKind::MultiProcess;

    spec.plan = generatePlan(rng, /*fleetSafe=*/fleet);
    spec.useCache = fleet || rng.chance(0.5);

    using namespace faultpoint;
    std::vector<const char *> eligible;
    if (fleet) {
        eligible = {CgNan,           CgDiverge,
                    JobStall,        JournalCorrupt,
                    JournalTruncate, JournalTornSegment,
                    LeaseLost,       WorkerDie,
                    CompleteDup};
    } else {
        eligible = {CgNan,           CgDiverge,
                    MgDiverge,       ImpulseCorrupt,
                    JobStall,        JournalCorrupt,
                    JournalTruncate, JournalTornSegment,
                    CkptCorrupt};
    }
    if (spec.useCache)
        eligible.push_back(CacheCorrupt);
    spec.faultSpec = generateFaultSpec(rng, eligible);

    spec.segmentJobs =
        static_cast<std::size_t>(rng.range(2, 4));
    const std::size_t jobs = spec.plan.plan.jobCount();
    spec.stopAfter =
        jobs >= 2 ? static_cast<std::size_t>(rng.range(1, jobs - 1))
                  : 1;
    spec.port = 20000 + static_cast<int>(rng.index(20000));
    spec.workers = 1 + static_cast<std::size_t>(rng.range(0, 2));
    spec.killCoordinator = rng.chance(0.35);
    spec.victimWorker = rng.index(spec.workers);
    spec.killDelaySeconds = rng.uniform(0.2, 1.2);
    return spec;
}

CampaignSummary
runCampaign(const CampaignOptions &opts)
{
    if (opts.cycles == 0)
        configError("campaign: --cycles must be at least 1");
    std::error_code ec;
    std::filesystem::create_directories(opts.outDir, ec);
    if (ec)
        ioError("campaign: cannot create output directory '",
                opts.outDir, "': ", ec.message());

    CampaignSummary summary;
    summary.seed = opts.seed;
    const Clock::time_point start = Clock::now();

    for (std::size_t i = 0; i < opts.cycles; ++i) {
        if (opts.onlyCycle >= 0 &&
            i != static_cast<std::size_t>(opts.onlyCycle))
            continue;
        if (opts.timeBudgetSeconds > 0.0 &&
            summary.cyclesRun > 0 &&
            secondsSince(start) >= opts.timeBudgetSeconds) {
            inform("campaign: time budget (",
                   opts.timeBudgetSeconds,
                   " s) exhausted after ", summary.cyclesRun,
                   " cycles");
            break;
        }

        CycleOutcome oc;
        oc.spec = makeCycleSpec(opts, i);
        if (oc.spec.kind == CycleKind::MultiProcess &&
            opts.cliPath.empty()) {
            // Unreachable via makeCycleSpec's own logic unless
            // forceKind demanded a fleet without a CLI.
            configError("campaign: multi-process cycles need "
                        "--cli <irtherm_cli path>");
        }

        char tag[32];
        std::snprintf(tag, sizeof(tag), "cycle_%03zu", i);
        oc.dir = (std::filesystem::path(opts.outDir) / tag)
                     .string();
        std::filesystem::remove_all(oc.dir, ec);
        std::filesystem::create_directories(oc.dir, ec);

        inform("campaign: cycle ", i, " (",
               oc.spec.kind == CycleKind::InProcess
                   ? "in-process"
                   : "multi-process",
               "): plan of ", oc.spec.plan.plan.jobCount(),
               " jobs, faults \"", oc.spec.faultSpec, "\"");
        // Each cycle gets a fresh timeline: a failing cycle dumps
        // exactly its own phase spans and events next to repro.txt.
        obs::SpanRecorder::global().clear();
        obs::SpanRecorder::global().setEnabled(true);
        try {
            obs::ScopedSpan cycleSpan("campaign.cycle");
            cycleSpan.attr("index", static_cast<double>(i));
            cycleSpan.attr("kind",
                           oc.spec.kind == CycleKind::InProcess
                               ? "in-process"
                               : "multi-process");
            cycleSpan.attr("faults", oc.spec.faultSpec);
            if (oc.spec.kind == CycleKind::InProcess)
                runInProcessCycle(oc.spec, oc.dir, oc);
            else
                runFleetCycle(opts, oc.spec, oc.dir, oc);
        } catch (const std::exception &e) {
            oc.error = e.what();
        }
        FaultInjector::global().disarm();

        oc.passed = oc.error.empty() && oc.report.passed();
        IRTHERM_EVENT("campaign.verdict",
                      {"cycle", static_cast<double>(i)},
                      {"passed", oc.passed ? "true" : "false"});
        ++summary.cyclesRun;
        if (oc.passed) {
            ++summary.cyclesPassed;
        } else {
            writeRepro(opts, oc);
            // Dump the cycle's timeline next to the repro recipe so
            // a nightly failure ships its own phase-by-phase trace.
            std::ofstream trace(
                (std::filesystem::path(oc.dir) / "cycle.trace.json")
                    .string());
            trace << obs::spansToTraceJson(obs::SpanRecorder::global());
            warn("campaign: cycle ", i, " FAILED (repro in ",
                 oc.dir, "/repro.txt, timeline in ", oc.dir,
                 "/cycle.trace.json)");
        }
        inform("campaign: cycle ", i,
               oc.passed ? " passed" : " FAILED", "\n",
               oc.report.summary());
        summary.outcomes.push_back(std::move(oc));
    }
    return summary;
}

} // namespace irtherm::campaign
