#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/errors.hh"
#include "base/resource_usage.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "fabric/coordinator.hh"
#include "fabric/http_client.hh"
#include "fabric/worker.hh"
#include "obs/export.hh"
#include "obs/trace_clock.hh"
#include "sweep/json.hh"
#include "sweep/plan.hh"
#include "sweep/report.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"

namespace perfbench
{

namespace
{

using namespace irtherm;
using sweep::JobResult;
using sweep::JobStatus;
using sweep::ScenarioSpec;
using sweep::SweepPlan;

constexpr const char *kHost = "127.0.0.1";
constexpr const char *kPlanContext = "perfbench plan";

double
now()
{
    return obs::monotonicSeconds();
}

void
sleepSeconds(double s)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/** Job solves run single-threaded while a sweep's threads provide
 *  the parallelism, as JobExecutor arranges for runSweep. */
class SerialKernels
{
  public:
    SerialKernels() : was(ThreadPool::parallelEnabled())
    {
        ThreadPool::setParallelEnabled(false);
    }
    ~SerialKernels() { ThreadPool::setParallelEnabled(was); }
    SerialKernels(const SerialKernels &) = delete;
    SerialKernels &operator=(const SerialKernels &) = delete;

  private:
    bool was;
};

// --- end to end ------------------------------------------------------

RoundResult
sweepEndToEnd(const std::string &planText, const std::string &outDir)
{
    RoundResult out;
    // The first Ok result reaches the shared-cache store hook right
    // after it is journaled; runSweep joins its threads before
    // returning, so reading firstAt afterwards is ordered.
    std::atomic<bool> seen{false};
    double firstAt = 0.0;
    const double t0 = now();
    const SweepPlan plan = SweepPlan::parse(planText, kPlanContext);
    sweep::SweepOptions opts;
    opts.outDir = outDir;
    opts.workers = kJobThreads;
    opts.sharedCacheStore = [&](const JobResult &) {
        if (!seen.exchange(true))
            firstAt = now();
    };
    const sweep::SweepSummary sum = sweep::runSweep(plan, opts);
    const double t1 = now();
    if (!seen)
        firstAt = t1;
    out.setupSeconds = firstAt - t0;
    out.drainSeconds = t1 - firstAt;
    out.wallSeconds = t1 - t0;
    out.ok = sum.ok;
    return out;
}

/** Jobs done so far per the coordinator's /status; -1 when it is
 *  unreachable. */
double
statusDone(int port)
{
    try {
        const fabric::HttpReply r =
            fabric::httpRequest(kHost, port, "GET", "/status", "", 2.0);
        if (r.status != 200)
            return -1.0;
        const sweep::JsonValue doc = sweep::parseJson(r.body, "/status");
        return doc.at("jobs").at("done").number;
    } catch (const FatalError &) {
        return -1.0;
    }
}

/**
 * Runs runCoordinator on its own thread and hands out the bound
 * port; rethrow() raises whatever the coordinator threw.
 */
class CoordinatorThread
{
  public:
    CoordinatorThread(const SweepPlan &plan, const std::string &outDir)
    {
        fabric::CoordinatorOptions co;
        co.outDir = outDir;
        co.port = 0;
        co.onServerStart = [this](int p) { portPromise.set_value(p); };
        thread = std::thread([this, &plan, co] {
            try {
                summary = fabric::runCoordinator(plan, co);
            } catch (...) {
                error = std::current_exception();
            }
            returnedAt = now();
            try {
                portPromise.set_value(-1); // start never reached
            } catch (const std::future_error &) {
            }
        });
        port = portPromise.get_future().get();
    }

    ~CoordinatorThread()
    {
        if (thread.joinable())
            thread.join();
    }
    CoordinatorThread(const CoordinatorThread &) = delete;
    CoordinatorThread &operator=(const CoordinatorThread &) = delete;

    void join() { thread.join(); }

    void
    rethrow() const
    {
        if (error)
            std::rethrow_exception(error);
    }

    int port = -1;
    fabric::CoordinatorSummary summary;
    double returnedAt = 0.0;

  private:
    std::promise<int> portPromise;
    std::exception_ptr error;
    std::thread thread;
};

/** Join every thread in @p threads, then rethrow the first error. */
void
joinAll(std::vector<std::thread> &threads,
        std::vector<std::exception_ptr> &errors)
{
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

RoundResult
fabricEndToEnd(const std::string &planText, const std::string &outDir)
{
    RoundResult out;
    const double t0 = now();
    const SweepPlan plan = SweepPlan::parse(planText, kPlanContext);
    CoordinatorThread coord(plan, outDir);
    if (coord.port < 0) {
        coord.join();
        coord.rethrow();
        throw std::runtime_error("coordinator did not start");
    }
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(kJobThreads + 1);
    for (std::size_t i = 0; i < kJobThreads; ++i) {
        threads.emplace_back([&, i] {
            try {
                fabric::WorkerOptions wo;
                wo.host = kHost;
                wo.port = coord.port;
                wo.name = "w" + std::to_string(i);
                wo.pollSeconds = kFabricPollSeconds;
                fabric::runWorker(wo);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    // One prober on /status: the time the first job is seen done.
    double firstAt = 0.0;
    threads.emplace_back([&] {
        try {
            while (true) {
                const double done = statusDone(coord.port);
                if (done < 0.0)
                    throw std::runtime_error(
                        "coordinator /status unreachable before the "
                        "first result");
                if (done > 0.0) {
                    firstAt = now();
                    break;
                }
                sleepSeconds(0.0005);
            }
        } catch (...) {
            errors[kJobThreads] = std::current_exception();
        }
    });
    coord.join();
    joinAll(threads, errors);
    coord.rethrow();
    const double t1 = coord.returnedAt;
    if (firstAt == 0.0 || firstAt > t1)
        firstAt = t1;
    out.setupSeconds = firstAt - t0;
    out.drainSeconds = t1 - firstAt;
    out.wallSeconds = t1 - t0;
    out.ok = coord.summary.sweep.ok;
    return out;
}

// --- replay ----------------------------------------------------------

/** Steady rise vectors of completed jobs per stack hash: the warm
 *  starts runSweep gives later jobs of a stack. */
class WarmStarts
{
  public:
    std::vector<double>
    lookup(std::uint64_t stack) const
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = rise.find(stack);
        return it == rise.end() ? std::vector<double>{} : it->second;
    }
    void
    store(std::uint64_t stack, std::vector<double> r)
    {
        std::lock_guard<std::mutex> lock(mu);
        rise[stack] = std::move(r);
    }

  private:
    mutable std::mutex mu;
    std::map<std::uint64_t, std::vector<double>> rise;
};

/** The job summary the sweep journals, from the public accessors. */
void
summarize(JobResult &r, const StackModel &model,
          const std::vector<double> &nodes)
{
    const std::vector<double> cells = model.siliconCellTemperatures(nodes);
    double hi = -std::numeric_limits<double>::infinity();
    double lo = std::numeric_limits<double>::infinity();
    for (const double t : cells) {
        hi = std::max(hi, t);
        lo = std::min(lo, t);
    }
    r.peakCelsius = toCelsius(hi);
    r.minCelsius = toCelsius(lo);
    r.gradientKelvin = hi - lo;
    const std::vector<double> blockMax = model.blockMaxTemperatures(nodes);
    const std::vector<double> blockMean = model.blockTemperatures(nodes);
    const Floorplan &fp = model.floorplan();
    std::size_t hottest = 0;
    for (std::size_t b = 0; b < blockMax.size(); ++b) {
        if (blockMax[b] > blockMax[hottest])
            hottest = b;
    }
    if (!blockMax.empty())
        r.hottestUnit = fp.block(hottest).name;
    for (std::size_t b = 0; b < blockMean.size(); ++b)
        r.blockCelsius.emplace_back(fp.block(b).name,
                                    toCelsius(blockMean[b]));
    r.heatPrimaryWatts = model.heatThroughPrimary(nodes);
    r.heatSecondaryWatts = model.heatThroughSecondary(nodes);
}

/** One job in runSweep's order: resolve, assemble, solve, summarize. */
JobResult
replayJob(const ScenarioSpec &spec, bool allowSuperposition,
          WarmStarts &warm, SpanLog *log, std::atomic<std::size_t> &steps)
{
    JobResult r;
    r.hash = spec.hashHex();
    r.name = spec.displayName();
    const double cpuBefore = threadCpuSeconds();
    const std::int64_t rssBefore = peakRssKb();
    const double start = now();
    try {
        std::optional<sweep::ResolvedScenario> rs;
        {
            Timed t(log, "sweep.resolve");
            rs.emplace(spec.resolve());
        }
        std::optional<StackModel> model;
        {
            Timed t(log, "core.assemble");
            model.emplace(rs->floorplan, rs->config.package,
                          rs->config.model);
        }
        std::vector<double> nodes;
        if (!rs->transient) {
            {
                Timed t(log, "core.steady");
                const std::uint64_t stack = spec.stackHash();
                StackModel::SteadySolveOptions sopts;
                sopts.maxIterations = rs->maxIterations;
                sopts.tolerance = rs->tolerance;
                sopts.fallback = rs->solverFallback;
                sopts.preconditioner = rs->preconditioner;
                std::vector<double> guess;
                if (allowSuperposition && rs->superposition) {
                    sopts.superposition = true;
                    sopts.stackKey = stack;
                } else {
                    guess = warm.lookup(stack);
                    if (!guess.empty())
                        sopts.warmStart = &guess;
                }
                StackModel::SteadySolveInfo info;
                nodes = model->steadyNodeTemperatures(rs->blockPowers,
                                                      sopts, &info);
                r.cgIterations = info.iterations;
                r.warmStarted = info.warmStarted;
                r.fallbackTier = info.fallbackTier;
                r.impulseCacheHit = info.impulseCacheHit;
                std::vector<double> rise = nodes;
                for (double &v : rise)
                    v -= rs->config.package.ambient;
                warm.store(stack, std::move(rise));
            }
            Timed t(log, "core.summarize");
            summarize(r, *model, nodes);
        } else {
            std::optional<ThermalSimulator> sim;
            {
                Timed t(log, "core.transient.init");
                SimulatorOptions so;
                so.integrator = rs->integrator;
                so.implicitStep = rs->trace->sampleInterval();
                sim.emplace(*model, so);
                sim->initializeSteady(rs->trace->averagePowers());
            }
            double peak = -std::numeric_limits<double>::infinity();
            {
                Timed t(log, "core.transient");
                for (std::size_t s = 0; s < rs->trace->sampleCount(); ++s) {
                    sim->setBlockPowers(rs->trace->sample(s));
                    sim->advance(rs->trace->sampleInterval());
                    peak = std::max(peak, sim->maxSiliconTemperature());
                }
                steps += rs->trace->sampleCount();
                nodes = sim->nodeTemperatures();
            }
            Timed t(log, "core.summarize");
            summarize(r, *model, nodes);
            r.peakCelsius = std::max(r.peakCelsius, toCelsius(peak));
        }
        r.status = JobStatus::Ok;
    } catch (const std::exception &e) {
        r.status = JobStatus::Failed;
        r.errorClass = classifyException(e);
        r.error = e.what();
    }
    r.wallSeconds = now() - start;
    r.resources.cpuSeconds = threadCpuSeconds() - cpuBefore;
    r.resources.peakRssDeltaKb =
        std::max<std::int64_t>(0, peakRssKb() - rssBefore);
    r.resources.solverIterations = r.cgIterations;
    r.resources.fallbackEscalations = r.fallbackTier;
    return r;
}

ReplayResult
sweepReplay(const std::string &planText, const std::string &outDir,
            SpanLog &log)
{
    ReplayResult out;
    setBenchThread(0);
    const double t0 = now();
    std::optional<SweepPlan> plan;
    std::vector<ScenarioSpec> jobs;
    {
        Timed t(&log, "sweep.plan");
        plan.emplace(SweepPlan::parse(planText, kPlanContext));
        jobs = plan->expand();
    }
    std::optional<sweep::ResultStore> store;
    {
        Timed t(&log, "sweep.journal.open");
        store.emplace(outDir);
    }

    // runSweep's queue: first occurrence of each hash, and the
    // superposition gate by steady jobs per stack.
    std::vector<const ScenarioSpec *> pending;
    std::set<std::string> queued;
    for (const ScenarioSpec &spec : jobs) {
        if (queued.insert(spec.hashHex()).second)
            pending.push_back(&spec);
    }
    const std::size_t minJobs = sweep::SweepOptions{}.superpositionMinJobs;
    std::map<std::uint64_t, std::size_t> stackJobs;
    for (const ScenarioSpec *spec : pending) {
        const std::string *mode = spec->find("mode");
        if (mode == nullptr || *mode == "steady")
            ++stackJobs[spec->stackHash()];
    }

    const SerialKernels serial;
    WarmStarts warm;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> steps{0};
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(kJobThreads);
    for (std::uint32_t slot = 1; slot <= kJobThreads; ++slot) {
        threads.emplace_back([&, slot] {
            try {
                setBenchThread(slot);
                Timed root(&log, "replay.worker");
                while (true) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= pending.size())
                        break;
                    const ScenarioSpec &spec = *pending[i];
                    const auto it = stackJobs.find(spec.stackHash());
                    const bool superpose =
                        minJobs != 0 && it != stackJobs.end() &&
                        it->second >= minJobs;
                    const JobResult r =
                        replayJob(spec, superpose, warm, &log, steps);
                    if (r.status == JobStatus::Ok)
                        ++ok;
                    Timed t(&log, "sweep.journal");
                    store->add(r);
                }
            } catch (...) {
                errors[slot - 1] = std::current_exception();
            }
        });
    }
    joinAll(threads, errors);

    {
        Timed t(&log, "sweep.finalize");
        store->finalize();
        sweep::SweepSummary sum;
        sum.total = jobs.size();
        sum.executed = pending.size();
        sum.ok = ok;
        sum.failed = pending.size() - ok;
        sum.outDir = outDir;
        const std::filesystem::path dir(outDir);
        std::ofstream csv(dir / "report.csv");
        sweep::writeSweepCsv(csv, *plan, jobs, *store);
        std::ofstream json(dir / "report.json");
        sweep::writeSweepJson(json, *plan, jobs, *store, sum);
        if (!csv.flush() || !json.flush())
            throw std::runtime_error("cannot write reports in " + outDir);
    }
    out.wallSeconds = now() - t0;
    out.attempted = jobs.size();
    out.ok = ok;
    out.transientSteps = steps;
    return out;
}

/** A lease grant as it comes off the wire. */
struct Grant
{
    std::string token;
    bool done = false;
    std::vector<ScenarioSpec> jobs;
};

Grant
parseGrant(const std::string &body)
{
    const sweep::JsonValue doc = sweep::parseJson(body, "lease reply");
    Grant g;
    g.token = doc.at("token").text;
    const sweep::JsonValue *done = doc.find("done");
    g.done = done != nullptr && done->isBool() && done->boolean;
    for (const sweep::JsonValue &entry : doc.at("jobs").items) {
        ScenarioSpec spec;
        for (const auto &[key, value] : entry.at("settings").members)
            spec.set(key, sweep::scalarToString(value, "lease reply"));
        g.jobs.push_back(std::move(spec));
    }
    return g;
}

/** Shared counters of the bench-side lease loops. */
struct LeaseLoopStats
{
    std::mutex mu;
    ReplayResult totals;
    std::vector<std::string> resultLines;
};

/** One bench worker: lease, execute, encode, complete, until done. */
void
leaseLoop(std::uint32_t slot, int port, SpanLog &log,
          LeaseLoopStats &stats)
{
    setBenchThread(slot);
    const std::string label = benchThreadLabel(slot);
    sweep::JobExecutor executor{sweep::SweepOptions{}};
    ReplayResult mine;
    std::vector<std::string> lines;
    {
        Timed root(&log, "replay.worker");
        const std::string leaseBody =
            "{\"worker\":\"" + label + "\",\"max_jobs\":4}";
        while (true) {
            Grant grant;
            {
                Timed t(&log, "fabric.lease");
                fabric::HttpReply reply;
                try {
                    reply = fabric::httpRequest(kHost, port, "POST",
                                                "/lease", leaseBody);
                } catch (const FatalError &) {
                    break; // the coordinator finished and stopped
                }
                ++mine.leaseCalls;
                if (reply.status != 200)
                    throw std::runtime_error(
                        "POST /lease returned " +
                        std::to_string(reply.status));
                grant = parseGrant(reply.body);
            }
            if (grant.jobs.empty()) {
                if (grant.done)
                    break;
                ++mine.emptyPolls;
                Timed t(&log, "fabric.poll");
                sleepSeconds(kFabricPollSeconds);
                continue;
            }
            ++mine.grants;
            mine.leasedJobs += grant.jobs.size();
            std::vector<JobResult> results;
            for (const ScenarioSpec &spec : grant.jobs) {
                Timed t(&log, "sweep.execute");
                results.push_back(executor.run(spec, false, label));
                results.back().worker = label;
            }
            std::string body;
            {
                Timed t(&log, "fabric.json.encode");
                body = "{\"token\":\"" + obs::jsonEscape(grant.token) +
                       "\",\"worker\":\"" + label + "\",\"results\":[";
                for (std::size_t i = 0; i < results.size(); ++i) {
                    std::string line = results[i].toJsonLine();
                    body += (i ? "," : "") + line;
                    lines.push_back(std::move(line));
                }
                body += "]}";
            }
            for (const JobResult &r : results)
                mine.ok += r.status == JobStatus::Ok ? 1 : 0;
            bool done = false;
            {
                Timed t(&log, "fabric.complete");
                const fabric::HttpReply reply = fabric::httpRequest(
                    kHost, port, "POST", "/complete", body);
                ++mine.completeCalls;
                if (reply.status != 200)
                    throw std::runtime_error(
                        "POST /complete returned " +
                        std::to_string(reply.status));
                const sweep::JsonValue doc =
                    sweep::parseJson(reply.body, "complete reply");
                const sweep::JsonValue *d = doc.find("done");
                done = d != nullptr && d->isBool() && d->boolean;
            }
            if (done)
                break;
        }
    }
    std::lock_guard<std::mutex> lock(stats.mu);
    ReplayResult &t = stats.totals;
    t.ok += mine.ok;
    t.leaseCalls += mine.leaseCalls;
    t.completeCalls += mine.completeCalls;
    t.grants += mine.grants;
    t.leasedJobs += mine.leasedJobs;
    t.emptyPolls += mine.emptyPolls;
    for (std::string &l : lines)
        stats.resultLines.push_back(std::move(l));
}

ReplayResult
fabricReplay(const std::string &planText, const std::string &outDir,
             SpanLog &log)
{
    setBenchThread(0);
    const double t0 = now();
    std::optional<SweepPlan> plan;
    {
        Timed t(&log, "sweep.plan");
        plan.emplace(SweepPlan::parse(planText, kPlanContext));
    }
    CoordinatorThread coord(*plan, outDir);
    if (coord.port < 0) {
        coord.join();
        coord.rethrow();
        throw std::runtime_error("coordinator did not start");
    }
    LeaseLoopStats stats;
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(kJobThreads);
    for (std::uint32_t slot = 1; slot <= kJobThreads; ++slot) {
        threads.emplace_back([&, slot] {
            try {
                leaseLoop(slot, coord.port, log, stats);
            } catch (...) {
                errors[slot - 1] = std::current_exception();
            }
        });
    }
    coord.join();
    joinAll(threads, errors);
    coord.rethrow();

    ReplayResult out = stats.totals;
    out.wallSeconds = coord.returnedAt - t0;
    out.attempted = coord.summary.sweep.total;
    const double d0 = now();
    for (const std::string &line : stats.resultLines)
        (void)JobResult::fromJsonLine(line, "decode timing");
    out.decodeSeconds = now() - d0;
    return out;
}

// --- output check ----------------------------------------------------

constexpr double kSteadyToleranceK = 1e-6;
constexpr double kTransientToleranceK = 1e-9;

/** Empty when @p got agrees with @p want within @p tol kelvin. */
std::string
compareSummary(const JobResult &got, const JobResult &want, double tol)
{
    const auto off = [tol](double a, double b) {
        return !(std::fabs(a - b) <= tol);
    };
    if (off(got.peakCelsius, want.peakCelsius))
        return "peak " + std::to_string(got.peakCelsius) + " vs " +
               std::to_string(want.peakCelsius);
    if (off(got.minCelsius, want.minCelsius))
        return "min " + std::to_string(got.minCelsius) + " vs " +
               std::to_string(want.minCelsius);
    if (got.blockCelsius.size() != want.blockCelsius.size())
        return "block count differs";
    for (std::size_t b = 0; b < want.blockCelsius.size(); ++b) {
        if (got.blockCelsius[b].first != want.blockCelsius[b].first ||
            off(got.blockCelsius[b].second, want.blockCelsius[b].second))
            return "block " + want.blockCelsius[b].first + " differs";
    }
    return "";
}

std::size_t
checkSamples(Workload w)
{
    switch (w) {
      case Workload::Transient:
        return 1;
      case Workload::Fabric:
        return 4;
      default:
        return 2;
    }
}

} // namespace

RoundResult
runEndToEnd(Workload w, const std::string &planText,
            const std::string &outDir)
{
    return w == Workload::Fabric ? fabricEndToEnd(planText, outDir)
                                 : sweepEndToEnd(planText, outDir);
}

ReplayResult
runReplay(Workload w, const std::string &planText,
          const std::string &outDir, SpanLog &log)
{
    return w == Workload::Fabric ? fabricReplay(planText, outDir, log)
                                 : sweepReplay(planText, outDir, log);
}

CheckResult
checkRound(Workload w, const std::string &planText,
           const std::string &outDir, std::uint64_t sampleSeed,
           bool corrupt)
{
    CheckResult c;
    const std::vector<ScenarioSpec> jobs =
        SweepPlan::parse(planText, kPlanContext).expand();
    c.jobs = jobs.size();

    std::map<std::string, JobResult> byHash;
    std::ifstream journal(std::filesystem::path(outDir) / "journal.jsonl");
    std::string line;
    while (std::getline(journal, line)) {
        if (line.empty())
            continue;
        JobResult r = JobResult::fromJsonLine(line, "journal");
        byHash[r.hash] = std::move(r);
    }
    const auto problem = [&c](const std::string &what) {
        if (c.firstProblem.empty())
            c.firstProblem = what;
    };
    for (const ScenarioSpec &spec : jobs) {
        const auto it = byHash.find(spec.hashHex());
        if (it == byHash.end() || it->second.status != JobStatus::Ok) {
            ++c.notOk;
            problem("job " + spec.displayName() + " not journaled Ok");
        }
    }

    const SerialKernels serial;
    SplitMix64 rng(sampleSeed);
    const double tol = w == Workload::Transient ? kTransientToleranceK
                                                : kSteadyToleranceK;
    for (std::size_t k = 0; k < checkSamples(w) && !jobs.empty(); ++k) {
        const ScenarioSpec &spec = jobs[rng.index(jobs.size())];
        const auto it = byHash.find(spec.hashHex());
        if (it == byHash.end() || it->second.status != JobStatus::Ok)
            continue; // already counted as not Ok
        JobResult got = it->second;
        if (corrupt && c.sampled == 0)
            got.peakCelsius += 1e-3;
        ++c.sampled;
        // The reference: the same job on the plain path, in a fresh
        // context — no superposition, no warm start, no spans.
        WarmStarts none;
        std::atomic<std::size_t> steps{0};
        const JobResult want = replayJob(spec, false, none, nullptr, steps);
        const std::string diff =
            want.status == JobStatus::Ok
                ? compareSummary(got, want, tol)
                : "reference solve failed: " + want.error;
        if (!diff.empty()) {
            ++c.mismatches;
            problem("job " + spec.displayName() + ": " + diff);
        }
    }
    return c;
}

} // namespace perfbench
