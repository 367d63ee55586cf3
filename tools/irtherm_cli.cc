/**
 * @file
 * irtherm_cli — HotSpot-style command-line driver.
 *
 * Runs a steady-state solve or a transient trace replay from files,
 * the way HotSpot is driven:
 *
 *   irtherm_cli -f chip.flp -p chip.ptrace [-c run.config]
 *               [-o prefix] [-transient] [-sampling 3.33e-6]
 *   irtherm_cli -preset ev6 -p chip.ptrace ...
 *   irtherm_cli -demo
 *
 * Outputs:
 *   <prefix>.steady   per-block steady temperatures (name, celsius)
 *   <prefix>.map.csv  silicon thermal map (grid mode only)
 *   <prefix>.map.ppm  false-colour map image (grid mode only)
 *   <prefix>.ttrace   per-block temperatures per sample (-transient)
 *
 * Observability: --stats-out dumps the metrics registry as JSON
 * (schema irtherm.stats.v1) at exit, --spans-out writes the span
 * timeline as a Chrome trace_event document, with the structured
 * events (DTM engage/disengage, sensor polls, steady init) as
 * instants on the thread that raised them. Either flag implies
 * -transient when a power trace is given, since most solver
 * telemetry is generated by the replay. During an instrumented
 * replay a shadow DTM monitor polls per-block sensors and emits
 * engagement events without perturbing the run; -dtm <celsius>
 * makes the controller real (DVFS actuation applied to the trace
 * powers).
 *
 * -demo generates a small EV6/gcc run end-to-end (used as the
 * install smoke test).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/thermal_map.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "base/shutdown.hh"
#include "base/rng.hh"
#include "base/str.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "core/config_io.hh"
#include "fabric/coordinator.hh"
#include "fabric/result_cache.hh"
#include "fabric/worker.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "dtm/policy.hh"
#include "dtm/sensor.hh"
#include "floorplan/presets.hh"
#include "obs/export.hh"
#include "obs/log_json.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "power/power_trace.hh"
#include "power/synthetic_cpu.hh"
#include "power/wattch_model.hh"
#include "sweep/plan.hh"
#include "sweep/runner.hh"

using namespace irtherm;

namespace
{

#ifndef IRTHERM_VERSION
#define IRTHERM_VERSION "unknown"
#endif

void
usage()
{
    std::fprintf(
        stderr,
        "usage: irtherm_cli -f <flp> -p <ptrace> [options]\n"
        "       irtherm_cli -preset <ev6|athlon> -p <ptrace> [...]\n"
        "       irtherm_cli sweep <plan.json> [--out <dir>] "
        "[--resume] [--jobs <n>] [--timeout <sec>]\n"
        "       irtherm_cli sweep <plan.json> --coordinate <port> "
        "[--lease-ttl <sec>] [--cache <dir>]\n"
        "       irtherm_cli worker --connect <host:port> "
        "[--name <id>] [--lease-jobs <n>]\n"
        "       irtherm_cli -demo\n"
        "options:\n"
        "  -c <config>      simulation config "
        "(cooling/model keys; see core/config_io.hh)\n"
        "  -o <prefix>      output file prefix "
        "(default: irtherm_out)\n"
        "  -transient       replay the trace transiently and write "
        "<prefix>.ttrace\n"
        "  -sampling <sec>  ptrace sample interval "
        "(default 3.33e-6)\n"
        "  -dtm <celsius>   engage a DVFS DTM controller at this "
        "trigger (transient only)\n"
        "observability:\n"
        "  --stats-out <file>   write the metrics registry as JSON "
        "(implies -transient)\n"
        "  --spans-out <file>   write hierarchical spans and event "
        "instants as Chrome trace_event JSON (load in Perfetto; "
        "implies -transient)\n"
        "  --log-level <level>  debug|info|warn|error|silent "
        "(default info)\n"
        "  --version            print version and exit\n"
        "sweep subcommand (batched design-space runs):\n"
        "  sweep <plan.json>    expand the plan's axes into a job "
        "batch and run it\n"
        "  --out <dir>          output directory: journal.jsonl, "
        "report.{csv,json} (default sweep_out)\n"
        "  --resume             skip scenarios already journaled in "
        "<dir>\n"
        "  --jobs <n>           concurrent jobs (default: one per "
        "hardware thread)\n"
        "  --timeout <sec>      per-job deadline, checked at phase "
        "boundaries; jobs unresponsive past the watchdog grace "
        "window are abandoned as hung\n"
        "  --retries <n>        extra attempts for retryable "
        "(numeric/io) job failures (default 2)\n"
        "  --faults <spec>      arm the fault injector, e.g. "
        "'cg.nan:count=1,job.stall:match=big' (testing; equivalent "
        "to IRTHERM_FAULTS)\n"
        "  --serve <port>       serve live /status, /metrics, "
        "/aggregates and /healthz over HTTP while the "
        "sweep runs (binds 127.0.0.1; port 0 picks an ephemeral "
        "port)\n"
        "  --superpose-min <n>  minimum pending steady jobs sharing "
        "a stack before the sweep answers them by impulse-response "
        "superposition instead of per-job solves (default 8; 0 "
        "disables the fast path)\n"
        "  --cache <dir>        shared content-addressed result "
        "cache: completed jobs are published by scenario hash and "
        "answered from cache on later runs\n"
        "distributed fabric (coordinator + workers):\n"
        "  --coordinate <port>  serve the plan's jobs to workers "
        "over HTTP job leases instead of running them locally "
        "(binds 127.0.0.1; port 0 picks an ephemeral port)\n"
        "  --lease-ttl <sec>    lease TTL: a worker silent this "
        "long forfeits its jobs for re-lease (default 10)\n"
        "  --lease-jobs <n>     max jobs handed out per lease "
        "(default 4)\n"
        "  --admit-rps <n>      admission control: requests/s "
        "before the coordinator sheds 429 + Retry-After (default "
        "off)\n"
        "  --fleet-trace-out <file>  write the fleet-wide merged "
        "Chrome trace (coordinator + one track per worker) when the "
        "sweep drains; also served live at GET /trace\n"
        "  --suspect-after <sec>  heartbeat silence before a worker "
        "is flagged suspect on /fleet (default: max(2.5 x lease "
        "TTL, 5))\n"
        "  --log-json <file|->  mirror log lines as JSONL (unix "
        "timestamp, level, identity, active trace/span) to a file, "
        "or '-' for stderr\n"
        "worker subcommand (joins a coordinated sweep):\n"
        "  worker --connect <host:port>   lease, execute, and "
        "report jobs until the coordinator says done\n"
        "  --name <id>          worker id stamped into result "
        "provenance (default worker-<pid>)\n"
        "  --lease-jobs <n>     jobs to request per lease "
        "(default 4)\n"
        "  --timeout/--retries/--faults/--log-level/--log-json as "
        "for sweep\n"
        "exit codes:\n"
        "  0  success (sweep: every job ok or cached)\n"
        "  1  runtime error (bad input file, solver failure; sweep: "
        "some job failed, timed out, or hung)\n"
        "  2  usage error (missing required arguments)\n");
}

/**
 * `irtherm_cli sweep plan.json [--out dir] [--resume] ...` — expand
 * a declarative sweep plan and run the batch through the sweep
 * engine. Shares the observability flags with the main driver.
 */
int
runSweepCommand(int argc, char **argv)
{
    std::string planPath;
    std::string statsOutPath;
    std::string spansOutPath;
    std::string cacheDir;
    std::string fleetTraceOutPath;
    std::string logJsonPath;
    double suspectAfter = 0.0;
    int coordinatePort = -1;
    double leaseTtl = 10.0;
    std::size_t leaseJobs = 4;
    double admitRps = 0.0;
    sweep::SweepOptions sopts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after ", arg);
            return argv[++i];
        };
        if (arg == "--out") {
            sopts.outDir = value();
        } else if (arg == "--resume") {
            sopts.resume = true;
        } else if (arg == "--jobs") {
            const double n = parseDouble(value(), "--jobs");
            if (n < 1.0 || n != std::floor(n))
                fatal("--jobs wants a positive integer, got ", n);
            sopts.workers = static_cast<std::size_t>(n);
        } else if (arg == "--timeout") {
            sopts.jobTimeoutSeconds = parseDouble(value(), "--timeout");
        } else if (arg == "--retries") {
            const double n = parseDouble(value(), "--retries");
            if (n < 0.0 || n != std::floor(n))
                fatal("--retries wants a non-negative integer, got ",
                      n);
            sopts.maxRetries = static_cast<std::size_t>(n);
        } else if (arg == "--faults") {
            FaultInjector::global().arm(value());
        } else if (arg == "--serve") {
            const double n = parseDouble(value(), "--serve");
            if (n < 0.0 || n > 65535.0 || n != std::floor(n))
                fatal("--serve wants a port in [0, 65535], got ", n);
            sopts.servePort = static_cast<int>(n);
        } else if (arg == "--superpose-min") {
            const double n = parseDouble(value(), "--superpose-min");
            if (n < 0.0 || n != std::floor(n))
                fatal("--superpose-min wants a non-negative integer, "
                      "got ", n);
            sopts.superpositionMinJobs = static_cast<std::size_t>(n);
        } else if (arg == "--cache") {
            cacheDir = value();
        } else if (arg == "--coordinate") {
            const double n = parseDouble(value(), "--coordinate");
            if (n < 0.0 || n > 65535.0 || n != std::floor(n))
                fatal("--coordinate wants a port in [0, 65535], got ",
                      n);
            coordinatePort = static_cast<int>(n);
        } else if (arg == "--lease-ttl") {
            leaseTtl = parseDouble(value(), "--lease-ttl");
            if (leaseTtl <= 0.0)
                fatal("--lease-ttl wants a positive duration, got ",
                      leaseTtl);
        } else if (arg == "--lease-jobs") {
            const double n = parseDouble(value(), "--lease-jobs");
            if (n < 1.0 || n != std::floor(n))
                fatal("--lease-jobs wants a positive integer, got ",
                      n);
            leaseJobs = static_cast<std::size_t>(n);
        } else if (arg == "--admit-rps") {
            admitRps = parseDouble(value(), "--admit-rps");
            if (admitRps < 0.0)
                fatal("--admit-rps wants a non-negative rate, got ",
                      admitRps);
        } else if (arg == "--stats-out") {
            statsOutPath = value();
        } else if (arg == "--spans-out") {
            spansOutPath = value();
        } else if (arg == "--fleet-trace-out") {
            fleetTraceOutPath = value();
        } else if (arg == "--suspect-after") {
            suspectAfter = parseDouble(value(), "--suspect-after");
            if (suspectAfter <= 0.0)
                fatal("--suspect-after wants a positive duration, "
                      "got ", suspectAfter);
        } else if (arg == "--log-json") {
            logJsonPath = value();
        } else if (arg == "--log-level") {
            setLogLevel(parseLogLevel(value()));
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            fatal("unknown sweep argument '", arg, "'");
        } else if (planPath.empty()) {
            planPath = arg;
        } else {
            fatal("unexpected sweep argument '", arg, "'");
        }
    }
    if (planPath.empty()) {
        usage();
        return 2;
    }
    // The /status endpoint reports per-worker span paths, so serving
    // implies span recording even without --spans-out. A fleet trace
    // needs the coordinator's own track recorded too.
    if (!spansOutPath.empty() || sopts.servePort >= 0 ||
        !fleetTraceOutPath.empty())
        obs::SpanRecorder::global().setEnabled(true);
    if (!logJsonPath.empty())
        obs::installJsonLogSink(
            logJsonPath,
            coordinatePort >= 0 ? "coordinator" : "sweep");
    if (!fleetTraceOutPath.empty() && coordinatePort < 0)
        fatal("--fleet-trace-out needs --coordinate (the merged "
              "trace is assembled by the coordinator)");

    const sweep::SweepPlan plan = sweep::SweepPlan::load(planPath);
    std::printf("plan: %s — %zu scenario(s)", plan.name().c_str(),
                plan.jobCount());
    for (const sweep::SweepAxis &axis : plan.axes())
        std::printf("  [%s x%zu]", axis.key.c_str(),
                    axis.values.size());
    std::printf("\n");

    // SIGINT/SIGTERM drain instead of kill: in-flight jobs land in the
    // journal and the reports are written, so --resume continues
    // where this run stopped.
    installShutdownHandlers();

    sweep::SweepSummary sum;
    if (coordinatePort >= 0) {
        fabric::CoordinatorOptions copts;
        copts.outDir = sopts.outDir;
        copts.port = coordinatePort;
        copts.leaseTtlSeconds = leaseTtl;
        copts.leaseJobs = leaseJobs;
        copts.resume = sopts.resume;
        copts.cacheDir = cacheDir;
        copts.admitRatePerSecond = admitRps;
        copts.fleetTraceOut = fleetTraceOutPath;
        copts.suspectAfterSeconds = suspectAfter;
        const fabric::CoordinatorSummary csum =
            fabric::runCoordinator(plan, copts);
        sum = csum.sweep;
        std::printf("fabric: %zu worker(s), %zu lease(s), %zu "
                    "expired, %zu duplicate complete(s) dropped\n",
                    csum.workersSeen, csum.leasesGranted,
                    csum.leasesExpired, csum.duplicateCompletes);
    } else {
        std::unique_ptr<fabric::ResultCache> cache;
        if (!cacheDir.empty()) {
            cache = std::make_unique<fabric::ResultCache>(cacheDir);
            cache->attach(sopts);
        }
        sum = sweep::runSweep(plan, sopts);
    }

    TextTable table({"jobs", "count"});
    table.addRow({"total", std::to_string(sum.total)});
    table.addRow({"executed", std::to_string(sum.executed)});
    table.addRow({"ok", std::to_string(sum.ok)});
    table.addRow({"failed", std::to_string(sum.failed)});
    table.addRow({"timeout", std::to_string(sum.timedOut)});
    table.addRow({"hung", std::to_string(sum.hung)});
    table.addRow({"cached (resume)", std::to_string(sum.cached)});
    table.addRow({"shared-cache hits",
                  std::to_string(sum.sharedCacheHits)});
    table.addRow({"duplicates", std::to_string(sum.duplicates)});
    table.addRow({"warm-started", std::to_string(sum.warmStarted)});
    table.addRow({"retried", std::to_string(sum.retried)});
    table.addRow({"fallback solves", std::to_string(sum.fallbacks)});
    table.addRow({"quarantined", std::to_string(sum.quarantined)});
    table.print(std::cout);
    std::printf("wrote %s (journal)\n", sum.journalPath.c_str());
    if (!sum.csvPath.empty())
        std::printf("wrote %s + %s (reports)\n", sum.csvPath.c_str(),
                    sum.jsonPath.c_str());

    if (!statsOutPath.empty()) {
        std::ofstream out(statsOutPath);
        if (!out)
            fatal("cannot write ", statsOutPath);
        obs::writeMetricsJson(out, obs::MetricsRegistry::global());
        std::printf("wrote %s (stats)\n", statsOutPath.c_str());
    }
    if (!spansOutPath.empty()) {
        const obs::SpanRecorder &rec = obs::SpanRecorder::global();
        std::ofstream out(spansOutPath);
        if (!out)
            fatal("cannot write ", spansOutPath);
        out << obs::spansToTraceJson(rec);
        std::printf("wrote %s (%zu records)\n", spansOutPath.c_str(),
                    rec.size());
    }
    return (sum.failed == 0 && sum.timedOut == 0 && sum.hung == 0)
               ? 0
               : 1;
}

/**
 * `irtherm_cli worker --connect host:port [...]` — join a coordinated
 * sweep: lease jobs, execute them through the shared JobExecutor, and
 * report results until the coordinator says done.
 */
int
runWorkerCommand(int argc, char **argv)
{
    fabric::WorkerOptions wopts;
    std::string logJsonPath;
    bool haveAddress = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after ", arg);
            return argv[++i];
        };
        if (arg == "--connect") {
            const std::string addr = value();
            const std::size_t colon = addr.rfind(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 >= addr.size())
                fatal("--connect wants host:port, got '", addr, "'");
            wopts.host = addr.substr(0, colon);
            const double p = parseDouble(addr.substr(colon + 1),
                                         "--connect port");
            if (p < 1.0 || p > 65535.0 || p != std::floor(p))
                fatal("--connect wants a port in [1, 65535], got ",
                      p);
            wopts.port = static_cast<int>(p);
            haveAddress = true;
        } else if (arg == "--name") {
            wopts.name = value();
        } else if (arg == "--lease-jobs") {
            const double n = parseDouble(value(), "--lease-jobs");
            if (n < 1.0 || n != std::floor(n))
                fatal("--lease-jobs wants a positive integer, got ",
                      n);
            wopts.maxLeaseJobs = static_cast<std::size_t>(n);
        } else if (arg == "--timeout") {
            wopts.exec.jobTimeoutSeconds =
                parseDouble(value(), "--timeout");
        } else if (arg == "--retries") {
            const double n = parseDouble(value(), "--retries");
            if (n < 0.0 || n != std::floor(n))
                fatal("--retries wants a non-negative integer, got ",
                      n);
            wopts.exec.maxRetries = static_cast<std::size_t>(n);
        } else if (arg == "--faults") {
            FaultInjector::global().arm(value());
        } else if (arg == "--log-json") {
            logJsonPath = value();
        } else if (arg == "--log-level") {
            setLogLevel(parseLogLevel(value()));
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else {
            fatal("unknown worker argument '", arg, "'");
        }
    }
    if (!haveAddress) {
        usage();
        return 2;
    }
    if (!logJsonPath.empty())
        obs::installJsonLogSink(
            logJsonPath,
            wopts.name.empty() ? "worker" : wopts.name);
    installShutdownHandlers();
    const fabric::WorkerSummary sum = fabric::runWorker(wopts);
    std::printf("worker: %zu executed (%zu ok, %zu failed, %zu "
                "timeout, %zu hung), %zu lease(s), %zu renewal(s), "
                "%zu duplicate(s)\n",
                sum.executed, sum.ok, sum.failed, sum.timedOut,
                sum.hung, sum.leases, sum.renewals, sum.duplicates);
    return (sum.failed == 0 && sum.timedOut == 0 && sum.hung == 0)
               ? 0
               : 1;
}

struct CliOptions
{
    std::string flpPath;
    std::string preset;
    std::string ptracePath;
    std::string configPath;
    std::string outPrefix = "irtherm_out";
    std::string statsOutPath;
    std::string spansOutPath;
    bool transient = false;
    bool demo = false;
    double sampling = 3.33e-6;
    /** DVFS DTM trigger threshold (celsius); unset = shadow monitor. */
    std::optional<double> dtmTriggerCelsius;
};

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after ", arg);
            return argv[++i];
        };
        if (arg == "-f") {
            opt.flpPath = value();
        } else if (arg == "-preset") {
            opt.preset = value();
        } else if (arg == "-p") {
            opt.ptracePath = value();
        } else if (arg == "-c") {
            opt.configPath = value();
        } else if (arg == "-o") {
            opt.outPrefix = value();
        } else if (arg == "-transient") {
            opt.transient = true;
        } else if (arg == "-sampling") {
            opt.sampling = parseDouble(value(), "-sampling");
        } else if (arg == "-dtm") {
            opt.dtmTriggerCelsius = parseDouble(value(), "-dtm");
        } else if (arg == "--stats-out") {
            opt.statsOutPath = value();
        } else if (arg == "--spans-out") {
            opt.spansOutPath = value();
        } else if (arg == "--log-level") {
            setLogLevel(parseLogLevel(value()));
        } else if (arg == "--version") {
            std::printf("irtherm_cli %s\n", IRTHERM_VERSION);
            std::exit(0);
        } else if (arg == "-demo") {
            opt.demo = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            std::exit(0);
        } else {
            fatal("unknown argument '", arg, "'");
        }
    }
    // Solver telemetry comes from the replay; asking for stats or
    // spans without -transient would observe almost nothing.
    if (!opt.statsOutPath.empty() || !opt.spansOutPath.empty())
        opt.transient = true;
    return opt;
}

Floorplan
loadFloorplan(const CliOptions &opt)
{
    if (!opt.flpPath.empty())
        return Floorplan::loadFlp(opt.flpPath);
    if (opt.preset == "ev6")
        return floorplans::alphaEv6();
    if (opt.preset == "athlon")
        return floorplans::athlon64();
    if (!opt.preset.empty())
        fatal("unknown preset '", opt.preset, "'");
    fatal("no floorplan: pass -f <flp> or -preset <name>");
}

/**
 * Transient trace replay with a DTM controller in the loop.
 *
 * The controller polls a per-block-center sensor array each sample.
 * In shadow mode (no -dtm) the trigger sits at the sensed steady
 * temperature so the replay's oscillation exercises engage/disengage
 * telemetry without changing any output; with -dtm the actuation is
 * applied to the trace powers before each advance.
 *
 * When the primary model is grid mode, a block-mode companion model
 * is replayed under the same powers with the adaptive-RK4 path (the
 * paper's HotSpot-style flow), and the worst per-block disagreement
 * between the two fidelities is reported.
 */
void
runTransient(const CliOptions &opt, const Floorplan &fp,
             const StackModel &model, const StackModel *block_model,
             const PowerTrace &trace)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::ScopedTimer phase(reg.timer("cli.phase.transient_time"));

    SimulatorOptions so;
    // One implicit step per trace sample keeps backward Euler exact
    // on the sample grid (its advance() requires dt | duration).
    so.implicitStep = trace.sampleInterval();
    ThermalSimulator sim(model, so);
    sim.initializeSteady(trace.averagePowers());

    std::unique_ptr<ThermalSimulator> companion;
    if (block_model) {
        companion = std::make_unique<ThermalSimulator>(*block_model);
        companion->initializeSteady(trace.averagePowers());
    }

    SensorArray sensors(placement::perBlockCenters(fp));
    Rng rng;
    const bool actuate = opt.dtmTriggerCelsius.has_value();
    DtmConfig dtm;
    dtm.action = DtmAction::Dvfs;
    dtm.samplingInterval = trace.sampleInterval();
    // Shadow mode triggers on the sensed steady temperature (what a
    // real controller would calibrate against), so the oscillating
    // replay genuinely crosses it.
    dtm.triggerThreshold =
        actuate ? toKelvin(*opt.dtmTriggerCelsius)
                : sensors.readMax(model, sim.nodeTemperatures(), rng);
    std::vector<std::string> unit_names;
    for (const Block &b : fp.blocks())
        unit_names.push_back(b.name);
    DtmController controller(dtm, unit_names);

    std::ofstream out(opt.outPrefix + ".ttrace");
    if (!out)
        fatal("cannot write ", opt.outPrefix, ".ttrace");
    out << "time_s";
    for (const Block &b : fp.blocks())
        out << "\t" << b.name;
    out << "\n";

    double worst_dev = 0.0;
    std::vector<double> powers;
    for (std::size_t s = 0; s < trace.sampleCount(); ++s) {
        const double sensed =
            sensors.readMax(model, sim.nodeTemperatures(), rng);
        const DtmActuation act = controller.step(sim.time(), sensed);
        powers = trace.sample(s);
        if (actuate) {
            const double scale = act.voltageScale * act.voltageScale *
                                 act.frequencyScale;
            for (double &p : powers)
                p *= scale;
        }
        sim.setBlockPowers(powers);
        sim.advance(trace.sampleInterval());
        const auto bt = sim.blockTemperatures();
        if (companion) {
            companion->setBlockPowers(powers);
            companion->advance(trace.sampleInterval());
            const auto cbt = companion->blockTemperatures();
            for (std::size_t b = 0; b < bt.size(); ++b)
                worst_dev =
                    std::max(worst_dev, std::abs(bt[b] - cbt[b]));
        }
        out << static_cast<double>(s + 1) * trace.sampleInterval();
        for (double t : bt)
            out << "\t" << formatFixed(toCelsius(t), 3);
        out << "\n";
    }
    std::printf("wrote %s.ttrace (%zu samples)\n",
                opt.outPrefix.c_str(), trace.sampleCount());
    if (companion) {
        reg.gauge("cli.crosscheck.max_dev_k").set(worst_dev);
        std::printf("block-model cross-check: max |dT| %.3f K over "
                    "the replay\n",
                    worst_dev);
    }
    if (controller.engagements() > 0) {
        std::printf(
            "dtm: %zu engagement(s), %.1f%% duty, est. penalty "
            "%.2f%%%s\n",
            controller.engagements(),
            100.0 * controller.engagedTime() / sim.time(),
            100.0 * controller.performancePenalty(sim.time()),
            actuate ? "" : " (shadow monitor, not applied)");
    }
}

/** Write the stats / spans files and print the end-of-run summary. */
void
writeObservabilityOutputs(const CliOptions &opt)
{
    if (!opt.statsOutPath.empty()) {
        std::ofstream out(opt.statsOutPath);
        if (!out)
            fatal("cannot write ", opt.statsOutPath);
        obs::writeMetricsJson(out, obs::MetricsRegistry::global());
        std::printf("wrote %s (stats)\n", opt.statsOutPath.c_str());

        std::printf("---- run statistics ----\n");
        obs::printMetricsSummary(std::cout,
                                 obs::MetricsRegistry::global());
    }
    if (!opt.spansOutPath.empty()) {
        const obs::SpanRecorder &rec = obs::SpanRecorder::global();
        std::ofstream out(opt.spansOutPath);
        if (!out)
            fatal("cannot write ", opt.spansOutPath);
        out << obs::spansToTraceJson(rec);
        std::printf("wrote %s (%zu records, %llu dropped)\n",
                    opt.spansOutPath.c_str(), rec.size(),
                    static_cast<unsigned long long>(rec.dropped()));
    }
}

int
run(const CliOptions &opt)
{
    auto &reg = obs::MetricsRegistry::global();
    if (!opt.spansOutPath.empty())
        obs::SpanRecorder::global().setEnabled(true);

    Floorplan fp = [&] {
        obs::ScopedTimer phase(reg.timer("cli.phase.load_time"));
        return loadFloorplan(opt);
    }();

    SimulationConfig cfg;
    if (!opt.configPath.empty()) {
        cfg = loadConfig(opt.configPath);
    } else {
        cfg.model.mode = ModelMode::Grid; // maps by default
    }

    PowerTrace trace =
        PowerTrace::loadPtrace(opt.ptracePath, opt.sampling)
            .reorderedFor(fp);
    std::printf("floorplan: %zu blocks, %.1f x %.1f mm\n",
                fp.blockCount(), fp.width() * 1e3, fp.height() * 1e3);
    std::printf("trace: %zu samples, %.1f W average\n",
                trace.sampleCount(), trace.averageTotalPower());

    const StackModel model = [&] {
        obs::ScopedTimer phase(reg.timer("cli.phase.model_build_time"));
        return StackModel(fp, cfg.package, cfg.model);
    }();
    std::printf("model: %zu nodes, primary Rconv %.3f K/W\n",
                model.nodeCount(),
                model.equivalentPrimaryResistance());

    // Steady state on the trace average.
    const std::vector<double> nodes = [&] {
        obs::ScopedTimer phase(reg.timer("cli.phase.steady_time"));
        return model.steadyNodeTemperatures(trace.averagePowers());
    }();
    const auto blocks = model.blockTemperatures(nodes);
    {
        std::ofstream out(opt.outPrefix + ".steady");
        if (!out)
            fatal("cannot write ", opt.outPrefix, ".steady");
        for (std::size_t b = 0; b < fp.blockCount(); ++b) {
            out << fp.block(b).name << "\t"
                << formatFixed(toCelsius(blocks[b]), 2) << "\n";
        }
    }
    std::printf("wrote %s.steady\n", opt.outPrefix.c_str());

    if (cfg.model.mode == ModelMode::Grid) {
        obs::ScopedTimer phase(reg.timer("cli.phase.map_time"));
        const ThermalMap map = ThermalMap::fromModel(model, nodes);
        std::ofstream csv(opt.outPrefix + ".map.csv");
        map.writeCsv(csv);
        std::ofstream ppm(opt.outPrefix + ".map.ppm");
        map.writePpm(ppm);
        std::printf("wrote %s.map.{csv,ppm}  (Tmax %.1f C, dT %.1f "
                    "K)\n",
                    opt.outPrefix.c_str(), toCelsius(map.maxTemp()),
                    map.gradient());
        std::printf("%s", map.renderAscii(48).c_str());
    }

    if (opt.transient) {
        // Grid-mode replays carry a block-mode companion so the
        // adaptive-RK4 path is exercised and the two fidelities can
        // be compared (the paper's central question).
        std::unique_ptr<StackModel> block_model;
        if (cfg.model.mode == ModelMode::Grid) {
            ModelOptions mo = cfg.model;
            mo.mode = ModelMode::Block;
            block_model =
                std::make_unique<StackModel>(fp, cfg.package, mo);
        }
        runTransient(opt, fp, model, block_model.get(), trace);
    }

    writeObservabilityOutputs(opt);
    return 0;
}

int
runDemo()
{
    // Self-contained end-to-end exercise: synthesize inputs, write
    // them to files, and run both modes through the file paths (so
    // the demo covers the same code a user's invocation would).
    const Floorplan fp = floorplans::alphaEv6();
    {
        std::ofstream out("demo.flp");
        fp.writeFlp(out);
    }
    {
        const WattchPowerModel pm = WattchPowerModel::alphaEv6();
        SyntheticCpu cpu(pm, workloads::gcc());
        const PowerTrace trace = cpu.generate(200);
        std::ofstream out("demo.ptrace");
        trace.writePtrace(out);
    }
    {
        std::ofstream out("demo.config");
        out << "cooling oil\nambient 45\noil_velocity 10\n"
               "model_mode block\n";
    }

    CliOptions opt;
    opt.flpPath = "demo.flp";
    opt.ptracePath = "demo.ptrace";
    opt.configPath = "demo.config";
    opt.outPrefix = "demo_out";
    opt.transient = true;
    opt.statsOutPath = "demo_out.stats.json";
    opt.spansOutPath = "demo_out.spans.json";
    const int rc = run(opt);

    // Sanity: the steady file must exist and name every block.
    std::ifstream check("demo_out.steady");
    std::size_t lines = 0;
    std::string line;
    while (std::getline(check, line)) {
        if (!line.empty())
            ++lines;
    }
    if (lines != fp.blockCount())
        fatal("demo: expected ", fp.blockCount(), " steady rows, got ",
              lines);

    // The stats dump must at least carry the schema marker.
    std::ifstream stats("demo_out.stats.json");
    std::string statsBody((std::istreambuf_iterator<char>(stats)),
                          std::istreambuf_iterator<char>());
    if (statsBody.find("irtherm.stats.v1") == std::string::npos)
        fatal("demo: stats dump missing schema marker");

    // The shadow DTM monitor engages at least once, and the trace
    // must carry that instant (unless telemetry is compiled out).
    std::ifstream spans("demo_out.spans.json");
    std::string spansBody((std::istreambuf_iterator<char>(spans)),
                          std::istreambuf_iterator<char>());
    if (obs::kMetricsEnabled &&
        spansBody.find("\"dtm.engage\"") == std::string::npos)
        fatal("demo: span trace missing the dtm.engage instant");
    std::printf("demo OK\n");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
            return runSweepCommand(argc, argv);
        if (argc > 1 && std::strcmp(argv[1], "worker") == 0)
            return runWorkerCommand(argc, argv);
        const CliOptions opt = parseArgs(argc, argv);
        if (opt.demo)
            return runDemo();
        if (opt.ptracePath.empty()) {
            usage();
            return 2;
        }
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "irtherm_cli: %s\n", e.what());
        return 1;
    }
}
