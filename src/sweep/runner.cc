#include "sweep/runner.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/thermal_map.hh"
#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "base/shutdown.hh"
#include "base/resource_usage.hh"
#include "base/units.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "obs/http_server.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sweep/session.hh"

namespace irtherm::sweep
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Thrown by deadline checks; converted to JobStatus::Timeout. */
struct JobTimeout
{
};

void
checkDeadline(Clock::time_point deadline)
{
    if (deadline != Clock::time_point::max() && Clock::now() > deadline)
        throw JobTimeout{};
}

/**
 * What jobs over one RC network share, keyed by stack hash: the
 * assembled StackModel and the last steady rise vector (a later job
 * starts its CG solve from a neighbor's field instead of from zero).
 *
 * A model is kept only for a stack that expectJobs() said still has
 * jobs left, and only until its last job is done; at most maxModels
 * are kept at once, least recently used evicted first (a rebuilt
 * model is bit-identical). A stack that was never counted builds a
 * model per job and keeps only its warm start. StackModel is
 * immutable after construction, so jobs share one without locking.
 */
class StackCache
{
  public:
    using ModelPtr = std::shared_ptr<const StackModel>;

    explicit StackCache(std::size_t bound)
        : maxModels(std::max<std::size_t>(1, bound))
    {
    }

    ~StackCache()
    {
        retainedGauge().add(-static_cast<double>(retained));
    }

    StackCache(const StackCache &) = delete;
    StackCache &operator=(const StackCache &) = delete;

    void
    expectJobs(const std::map<std::uint64_t, std::size_t> &jobsPerStack)
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &[stack, jobs] : jobsPerStack)
            entries[stack].jobsLeft += jobs;
    }

    /**
     * The model of @p stack: the kept one, or the one @p build makes.
     * Concurrent jobs of a kept stack wait for its single build and
     * share its model; when that build threw, each of them runs
     * @p build itself and fails on its own exception, as it would
     * without the cache. @p built reports whether this call ran
     * @p build.
     */
    ModelPtr
    model(std::uint64_t stack, const std::function<ModelPtr()> &build,
          bool &built)
    {
        static obs::Counter &builds =
            obs::MetricsRegistry::global().counter(
                "sweep.stack_cache.builds");
        static obs::Counter &hits =
            obs::MetricsRegistry::global().counter(
                "sweep.stack_cache.hits");
        static obs::Counter &waits =
            obs::MetricsRegistry::global().counter(
                "sweep.stack_cache.waits");

        std::unique_lock<std::mutex> lock(mu);
        const auto it = entries.find(stack);
        if (it != entries.end() && it->second.model.valid()) {
            it->second.lastUse = ++useClock;
            const std::shared_future<ModelPtr> kept = it->second.model;
            lock.unlock();
            if (kept.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                // Another job of the stack is still assembling it.
                waits.add();
                obs::ScopedSpan span("sweep.build_wait");
                span.attr("on", "model");
                kept.wait();
            }
            if (ModelPtr m = kept.get()) {
                hits.add();
                built = false;
                return m;
            }
            built = true;
            builds.add();
            return build();
        }
        built = true;
        builds.add();
        if (it == entries.end() || it->second.jobsLeft < 2) {
            // No other job will ask for this stack: nothing to keep.
            lock.unlock();
            return build();
        }
        std::promise<ModelPtr> promise;
        Entry &e = it->second;
        e.model = promise.get_future().share();
        e.lastUse = ++useClock;
        ++retained;
        retainedGauge().add(1.0);
        evictBeyondBound();
        lock.unlock();
        try {
            ModelPtr m = build();
            promise.set_value(m);
            return m;
        } catch (...) {
            // Waiting and later jobs of the stack find no model and
            // build on their own, as they would without the cache.
            promise.set_value(nullptr);
            throw;
        }
    }

    /** Copy of the stack's last rise vector; empty when none. */
    std::vector<double>
    warmStart(std::uint64_t stack) const
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = entries.find(stack);
        return it == entries.end() ? std::vector<double>{}
                                   : it->second.rise;
    }

    void
    storeRise(std::uint64_t stack, std::vector<double> rise)
    {
        std::lock_guard<std::mutex> lock(mu);
        entries[stack].rise = std::move(rise);
    }

    /** One counted job of @p stack reached its terminal state; the
     *  last one takes the stack's model and warm start with it. */
    void
    jobDone(std::uint64_t stack)
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = entries.find(stack);
        if (it == entries.end() || it->second.jobsLeft == 0)
            return;
        if (--it->second.jobsLeft == 0) {
            dropModel(it->second);
            entries.erase(it);
        }
    }

  private:
    struct Entry
    {
        std::size_t jobsLeft = 0; ///< counted jobs not yet done
        /** Valid while the model is kept; ready once built (null
         *  when the build threw). */
        std::shared_future<ModelPtr> model;
        std::uint64_t lastUse = 0;
        std::vector<double> rise;
    };

    /** Models held by every StackCache in the process. */
    static obs::Gauge &
    retainedGauge()
    {
        static obs::Gauge &g = obs::MetricsRegistry::global().gauge(
            "sweep.stack_cache.models");
        return g;
    }

    void
    dropModel(Entry &e)
    {
        if (!e.model.valid())
            return;
        e.model = {};
        --retained;
        retainedGauge().add(-1.0);
    }

    void
    evictBeyondBound()
    {
        static obs::Counter &evictions =
            obs::MetricsRegistry::global().counter(
                "sweep.stack_cache.evictions");
        while (retained > maxModels) {
            Entry *lru = nullptr;
            for (auto &kv : entries) {
                Entry &e = kv.second;
                if (e.model.valid() &&
                    (lru == nullptr || e.lastUse < lru->lastUse))
                    lru = &e;
            }
            dropModel(*lru);
            evictions.add();
        }
    }

    const std::size_t maxModels;
    mutable std::mutex mu;
    std::map<std::uint64_t, Entry> entries;
    std::size_t retained = 0;
    std::uint64_t useClock = 0;
};

/** Fill the thermal summary of @p r from a solved node state. */
void
summarize(JobResult &r, const StackModel &model,
          const std::vector<double> &nodes)
{
    // The block maps check the node vector's size before the silicon
    // slice below is read.
    const std::vector<double> blockMax =
        model.blockMaxTemperatures(nodes);
    const std::vector<double> blockMean =
        model.blockTemperatures(nodes);

    const std::span<const double> cells(
        nodes.data() + model.siliconNodeBegin(), model.partition().size());
    double hi = -std::numeric_limits<double>::infinity();
    double lo = std::numeric_limits<double>::infinity();
    for (const double t : cells) {
        hi = std::max(hi, t);
        lo = std::min(lo, t);
    }
    r.peakCelsius = toCelsius(hi);
    r.minCelsius = toCelsius(lo);
    r.gradientKelvin = hi - lo;

    const Floorplan &fp = model.floorplan();
    std::size_t hottest = 0;
    for (std::size_t b = 0; b < blockMax.size(); ++b) {
        if (blockMax[b] > blockMax[hottest])
            hottest = b;
    }
    if (!blockMax.empty())
        r.hottestUnit = fp.block(hottest).name;
    for (std::size_t b = 0; b < blockMean.size(); ++b) {
        r.blockCelsius.emplace_back(fp.block(b).name,
                                    toCelsius(blockMean[b]));
    }
    r.heatPrimaryWatts = model.heatThroughPrimary(nodes);
    r.heatSecondaryWatts = model.heatThroughSecondary(nodes);
}

/** Run one scenario end to end; never throws (failure isolation).
 *  @p allowSuperposition: the plan holds enough jobs of this stack
 *  for the impulse-response matrix to amortize. */
JobResult
runOneJob(const ScenarioSpec &spec, const SweepOptions &opts,
          StackCache &stacks, std::size_t attempt,
          const std::string &workerLabel, bool allowSuperposition)
{
    JobResult r;
    r.hash = spec.hashHex();
    r.name = spec.displayName();
    // With a watchdog armed the job runs on a fresh thread; carrying
    // the worker's label over keeps /status attributing the live
    // span path to the logical worker even mid-hang.
    if (!workerLabel.empty())
        obs::SpanRecorder::setThreadLabel(workerLabel);
    obs::ScopedSpan jobSpan("sweep.job");
    jobSpan.attr("name", r.name)
        .attr("hash", r.hash)
        .attr("attempt", attempt);
    const double cpuBefore = threadCpuSeconds();
    const std::int64_t rssBefore = peakRssKb();
    // Scope key for fault probes: rules with match=<substr> target
    // this job's solves from any depth of the numeric stack.
    const FaultInjector::ScopedContext faultScope(r.name);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        opts.jobTimeoutSeconds > 0.0
            ? start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              opts.jobTimeoutSeconds))
            : Clock::time_point::max();
    try {
        if (FaultInjector::global().shouldFire(faultpoint::JobStall)) {
            // Uncooperative sleep — no deadline checks — so the
            // watchdog's hard deadline is the only thing that fires.
            const double secs = FaultInjector::global().param(
                faultpoint::JobStall, "seconds", 0.2);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(secs));
        }
        const ResolvedScenario rs = [&] {
            obs::ScopedSpan span("sweep.resolve");
            return spec.resolve();
        }();
        checkDeadline(deadline);
        const std::uint64_t stack = spec.stackHash();
        bool built = false;
        const StackCache::ModelPtr shared = stacks.model(
            stack,
            [&] {
                obs::ScopedSpan span("core.assemble");
                return std::make_shared<const StackModel>(
                    rs.floorplan, rs.config.package, rs.config.model);
            },
            built);
        const StackModel &model = *shared;
        jobSpan.attr("model", built ? "built" : "reused");
        checkDeadline(deadline);

        std::vector<double> nodes;
        if (!rs.transient) {
            StackModel::SteadySolveOptions sopts;
            sopts.maxIterations = rs.maxIterations;
            sopts.tolerance = rs.tolerance;
            sopts.fallback = rs.solverFallback;
            sopts.preconditioner = rs.preconditioner;
            const bool superpose =
                allowSuperposition && rs.superposition;
            std::vector<double> guess;
            if (superpose) {
                // The superposition path ignores warm starts (a
                // guess means the caller wants the iterative path),
                // so don't even look one up.
                sopts.superposition = true;
                sopts.stackKey = stack;
            } else {
                guess = stacks.warmStart(stack);
                if (!guess.empty())
                    sopts.warmStart = &guess;
            }
            StackModel::SteadySolveInfo info;
            nodes = model.steadyNodeTemperatures(rs.blockPowers,
                                                 sopts, &info);
            r.cgIterations = info.iterations;
            r.warmStarted = info.warmStarted;
            r.fallbackTier = info.fallbackTier;
            r.impulseCacheHit = info.impulseCacheHit;
            obs::ScopedSpan span("core.summarize");
            summarize(r, model, nodes);
        } else {
            SimulatorOptions so;
            so.integrator = rs.integrator;
            so.implicitStep = rs.trace->sampleInterval();
            ThermalSimulator sim(model, so);
            sim.initializeSteady(rs.trace->averagePowers());
            checkDeadline(deadline);
            double peak = -std::numeric_limits<double>::infinity();
            for (std::size_t s = 0; s < rs.trace->sampleCount();
                 ++s) {
                sim.setBlockPowers(rs.trace->sample(s));
                sim.advance(rs.trace->sampleInterval());
                peak = std::max(peak, sim.maxSiliconTemperature());
                if (s % 32 == 31)
                    checkDeadline(deadline);
            }
            nodes = sim.nodeTemperatures();
            obs::ScopedSpan span("core.summarize");
            summarize(r, model, nodes);
            // Report the replay-wide peak, not just the final
            // sample's (the warm-up / pulse experiments care about
            // the excursion).
            r.peakCelsius = std::max(r.peakCelsius, toCelsius(peak));
        }

        if (rs.writeMap && rs.config.model.mode == ModelMode::Grid) {
            obs::ScopedSpan span("sweep.map_write");
            const ThermalMap map = ThermalMap::fromModel(model, nodes);
            const std::filesystem::path base =
                std::filesystem::path(opts.outDir) / r.hash;
            std::ofstream csv(base.string() + ".map.csv");
            map.writeCsv(csv);
            std::ofstream ppm(base.string() + ".map.ppm");
            map.writePpm(ppm);
        }
        if (!rs.transient) {
            // Keep the warm start fresh even on superposed jobs: a
            // demoted neighbor still gets a good starting guess. The
            // node field is not read past this point, so it moves.
            for (double &t : nodes)
                t -= rs.config.package.ambient;
            stacks.storeRise(stack, std::move(nodes));
        }
        r.status = JobStatus::Ok;
    } catch (const JobTimeout &) {
        r.status = JobStatus::Timeout;
        r.errorClass = ErrorClass::Timeout;
        r.error = "job deadline exceeded";
    } catch (const std::exception &e) {
        r.status = JobStatus::Failed;
        r.errorClass = classifyException(e);
        r.error = e.what();
    }
    r.wallSeconds = std::chrono::duration<double>(Clock::now() - start)
                        .count();
    // Resources for THIS attempt; the worker loop accumulates across
    // retries. Peak RSS is a process high-water mark, so the job is
    // charged only with how far it pushed the mark up.
    r.resources.cpuSeconds = threadCpuSeconds() - cpuBefore;
    r.resources.peakRssDeltaKb =
        std::max<std::int64_t>(0, peakRssKb() - rssBefore);
    r.resources.solverIterations = r.cgIterations;
    r.resources.fallbackEscalations = r.fallbackTier;
    jobSpan.attr("status", jobStatusName(r.status))
        .attr("cpu_s", r.resources.cpuSeconds)
        .attr("cg_iterations", r.cgIterations)
        .attr("fallback_tier", r.fallbackTier);
    return r;
}

/** Result slot shared between a worker and its (detachable) runner. */
struct JobCell
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    JobResult result;
};

/**
 * Threads whose jobs blew past the hard deadline. They keep running
 * detached from the sweep (they only touch shared_ptr-owned copies),
 * and reap() gives each a bounded chance to finish at sweep end so
 * short overruns don't leak threads past process teardown.
 */
class AbandonedJobs
{
  public:
    void
    adopt(std::thread t, std::shared_ptr<JobCell> cell)
    {
        std::lock_guard<std::mutex> lock(mu);
        entries.emplace_back(std::move(t), std::move(cell));
    }

    std::size_t
    count() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return entries.size();
    }

    /** Join every thread that finishes within @p budgetSeconds
     *  (total); detach the rest. */
    void
    reap(double budgetSeconds)
    {
        std::lock_guard<std::mutex> lock(mu);
        const Clock::time_point deadline =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(budgetSeconds));
        for (auto &[thread, cell] : entries) {
            bool finished = false;
            {
                std::unique_lock<std::mutex> cellLock(cell->mu);
                finished = cell->cv.wait_until(
                    cellLock, deadline, [&] { return cell->done; });
            }
            if (finished)
                thread.join();
            else
                thread.detach();
        }
        entries.clear();
    }

  private:
    mutable std::mutex mu;
    std::vector<std::pair<std::thread, std::shared_ptr<JobCell>>>
        entries;
};

/**
 * Run one job under the watchdog. The job executes on its own
 * thread; if it is still unresponsive at
 * jobTimeoutSeconds * watchdogGraceFactor (past every cooperative
 * checkpoint), the thread is abandoned — it holds only copies of the
 * spec and options and the shared stack cache, so it can outlive
 * the sweep safely — and the job is recorded as `hung`.
 */
JobResult
runGuarded(const ScenarioSpec &spec, const SweepOptions &opts,
           const std::shared_ptr<StackCache> &stacks,
           AbandonedJobs &abandoned, std::size_t attempt,
           const std::string &workerLabel, bool allowSuperposition)
{
    if (opts.jobTimeoutSeconds <= 0.0)
        return runOneJob(spec, opts, *stacks, attempt, workerLabel,
                         allowSuperposition);

    auto cell = std::make_shared<JobCell>();
    auto specCopy = std::make_shared<ScenarioSpec>(spec);
    auto optsCopy = std::make_shared<SweepOptions>(opts);
    std::thread runner([cell, specCopy, optsCopy, stacks, attempt,
                        workerLabel, allowSuperposition] {
        JobResult jr = runOneJob(*specCopy, *optsCopy, *stacks, attempt,
                                 workerLabel, allowSuperposition);
        std::lock_guard<std::mutex> lock(cell->mu);
        cell->result = std::move(jr);
        cell->done = true;
        cell->cv.notify_all();
    });

    const double grace = std::max(1.0, opts.watchdogGraceFactor);
    // Hard deadline: the grace multiple of the cooperative deadline,
    // floored at deadline + 0.5 s so a tiny timeout still resolves
    // through a cooperative checkpoint (`timeout`) rather than racing
    // the job thread's startup (`hung`).
    const double hardDelay =
        std::max(opts.jobTimeoutSeconds * grace,
                 opts.jobTimeoutSeconds + 0.5);
    const Clock::time_point hardDeadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(hardDelay));
    std::unique_lock<std::mutex> lock(cell->mu);
    if (cell->cv.wait_until(lock, hardDeadline,
                            [&] { return cell->done; })) {
        lock.unlock();
        runner.join();
        return std::move(cell->result);
    }
    lock.unlock();
    abandoned.adopt(std::move(runner), cell);

    JobResult hung;
    hung.hash = spec.hashHex();
    hung.name = spec.displayName();
    hung.status = JobStatus::Hung;
    hung.errorClass = ErrorClass::Timeout;
    hung.error = "watchdog: job unresponsive past hard deadline";
    hung.wallSeconds = hardDelay;
    return hung;
}

/** Concurrent jobs for @p workers (SweepOptions::workers): 0 means
 *  one per hardware thread, and at least one. */
std::size_t
jobThreads(std::size_t workers)
{
    if (workers != 0)
        return workers;
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * The order runSweep's workers take pending jobs in ("Claim order"
 * in runner.hh): the earliest unclaimed job whose stack is not
 * warming, else the earliest unclaimed job. A stack with further
 * jobs warms from the claim of its first job until that job
 * returns, since that job assembles the model and builds the
 * impulse response its other jobs would block on
 * (StackCache::model, ImpulseResponseCache::acquire).
 */
class JobClaims
{
  public:
    static constexpr std::size_t kNone =
        std::numeric_limits<std::size_t>::max();

    /** @p stackOf: the stack hash of each pending job, in plan
     *  order; must outlive the claims. */
    explicit JobClaims(const std::vector<std::uint64_t> &stackOf)
        : stackOf(stackOf), nextOfStack(stackOf.size(), kNone),
          warms(stackOf.size(), false)
    {
        std::unordered_map<std::uint64_t, std::size_t> last;
        for (std::size_t i = 0; i < stackOf.size(); ++i) {
            const auto [it, first] = last.try_emplace(stackOf[i], i);
            if (first)
                heads.insert(i);
            else
                nextOfStack[std::exchange(it->second, i)] = i;
        }
        for (const std::size_t h : heads)
            warms[h] = nextOfStack[h] != kNone;
    }

    /** The pending index to run next; kNone once all are claimed. */
    std::size_t
    claim()
    {
        std::lock_guard<std::mutex> lock(mu);
        if (heads.empty())
            return kNone;
        // A warming stack holds one head, so this passes over at
        // most one head per busy worker.
        auto pick = std::find_if(
            heads.begin(), heads.end(), [&](std::size_t h) {
                return std::find(warming.begin(), warming.end(),
                                 stackOf[h]) == warming.end();
            });
        if (pick == heads.end())
            pick = heads.begin();
        const std::size_t i = *pick;
        heads.erase(pick);
        if (nextOfStack[i] != kNone)
            heads.insert(nextOfStack[i]);
        if (warms[i])
            warming.push_back(stackOf[i]);
        return i;
    }

    /** The job at pending index @p i returned. */
    void
    done(std::size_t i)
    {
        if (!warms[i])
            return;
        std::lock_guard<std::mutex> lock(mu);
        warming.erase(
            std::find(warming.begin(), warming.end(), stackOf[i]));
    }

  private:
    const std::vector<std::uint64_t> &stackOf;
    /** Pending index of the same stack's next job; kNone past the
     *  last. */
    std::vector<std::size_t> nextOfStack;
    /** The job is the first of a stack with further jobs. */
    std::vector<bool> warms;
    std::mutex mu;
    /** Earliest unclaimed job of each stack that has one. */
    std::set<std::size_t> heads;
    /** Stacks whose first job is running. */
    std::vector<std::uint64_t> warming;
};

} // namespace

struct JobExecutor::Impl
{
    SweepOptions opts;
    /** One kept model per job thread: enough for every worker to
     *  drain a different stack without rebuilding. */
    std::shared_ptr<StackCache> stacks =
        std::make_shared<StackCache>(jobThreads(opts.workers));
    AbandonedJobs abandoned;

    explicit Impl(const SweepOptions &o) : opts(o) {}
};

JobExecutor::JobExecutor(const SweepOptions &opts)
    : impl(std::make_unique<Impl>(opts))
{
}

JobExecutor::~JobExecutor()
{
    impl->abandoned.reap(
        std::max(2.0, 4.0 * impl->opts.jobTimeoutSeconds));
}

JobResult
JobExecutor::run(const ScenarioSpec &spec, bool allowSuperposition,
                 const std::string &workerLabel)
{
    static obs::Timer &jobTime =
        obs::MetricsRegistry::global().timer("sweep.job_time");
    const SweepOptions &opts = impl->opts;
    JobResult r;
    std::size_t attempt = 1;
    JobResources acc; ///< resource totals across attempts
    {
        obs::ScopedTimer jobTimer(jobTime);
        for (;; ++attempt) {
            r = runGuarded(spec, opts, impl->stacks, impl->abandoned,
                           attempt, workerLabel, allowSuperposition);
            acc.cpuSeconds += r.resources.cpuSeconds;
            acc.peakRssDeltaKb += r.resources.peakRssDeltaKb;
            acc.solverIterations += r.resources.solverIterations;
            if (r.status != JobStatus::Failed ||
                !errorClassRetryable(r.errorClass) ||
                attempt > opts.maxRetries)
                break;
            const double delay =
                opts.retryBackoffSeconds *
                static_cast<double>(1ULL << (attempt - 1));
            warn("sweep: job '", r.name, "' failed (",
                 errorClassName(r.errorClass), "), retry ", attempt,
                 "/", opts.maxRetries, " in ", delay, " s: ", r.error);
            obs::MetricsRegistry::global()
                .counter("resilience.retry.attempts")
                .add();
            IRTHERM_EVENT("resilience.retry", {"name", r.name},
                          {"attempt", attempt},
                          {"class", errorClassName(r.errorClass)},
                          {"delay_s", delay});
            std::this_thread::sleep_for(
                std::chrono::duration<double>(delay));
        }
    }
    impl->stacks->jobDone(spec.stackHash());
    r.attempts = attempt;
    acc.retries = attempt - 1;
    acc.fallbackEscalations = r.fallbackTier;
    r.resources = acc;
    return r;
}

void
JobExecutor::expectJobs(
    const std::map<std::uint64_t, std::size_t> &jobsPerStack)
{
    impl->stacks->expectJobs(jobsPerStack);
}

void
JobExecutor::reapAbandoned(double budgetSeconds)
{
    impl->abandoned.reap(budgetSeconds);
}

SweepSummary
runSweep(const SweepPlan &plan, const SweepOptions &opts)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::ScopedTimer batchTimer(reg.timer("sweep.batch_time"));
    obs::SpanRecorder::setThreadLabel("sweep-main");
    obs::ScopedSpan batchSpan("sweep.batch");
    batchSpan.attr("plan", plan.name());

    SweepSession session(plan, opts);
    const std::vector<const ScenarioSpec *> &pending = session.pending();

    // Jobs per stack hash. The executor keeps a stack's model while
    // the stack has jobs left; a stack whose steady jobs cross the
    // superposition threshold amortizes its impulse-response build
    // (one solve per block) across all of them.
    std::vector<std::uint64_t> stackOf;
    stackOf.reserve(pending.size());
    std::map<std::uint64_t, std::size_t> stackJobs;
    std::map<std::uint64_t, std::size_t> steadyStackJobs;
    for (const ScenarioSpec *spec : pending) {
        const std::uint64_t stack = stackOf.emplace_back(spec->stackHash());
        ++stackJobs[stack];
        const std::string *mode = spec->find("mode");
        if (mode == nullptr || *mode == "steady")
            ++steadyStackJobs[stack];
    }
    const auto superpositionEligible = [&](std::size_t i) {
        if (opts.superpositionMinJobs == 0)
            return false;
        const auto it = steadyStackJobs.find(stackOf[i]);
        return it != steadyStackJobs.end() &&
               it->second >= opts.superpositionMinJobs;
    };

    IRTHERM_EVENT("sweep.start", {"plan", plan.name()},
                  {"jobs", session.summary().total},
                  {"pending", pending.size()},
                  {"cached", session.summary().cached},
                  {"shared_cache_hits",
                   session.summary().sharedCacheHits});

    JobExecutor executor(opts);
    executor.expectJobs(stackJobs);
    JobClaims claims(stackOf);

    const std::size_t width = std::max<std::size_t>(
        1, std::min(jobThreads(opts.workers), pending.size()));
    session.board().setWorkers(width);

    // Live telemetry for the sweep's duration, if asked for.
    obs::HttpServer server;
    if (opts.servePort >= 0) {
        session.route(server);
        server.start(opts.servePort, opts.serveBindAddress);
        inform("sweep: serving /status /metrics /healthz /aggregates on ",
               opts.serveBindAddress, ":", server.port());
        if (opts.onServerStart)
            opts.onServerStart(server.port());
    }

    auto workerLoop = [&](std::size_t workerIndex) {
        const std::string label =
            "worker" + std::to_string(workerIndex);
        obs::SpanRecorder::setThreadLabel(label);
        while (true) {
            // SIGINT/SIGTERM drains: stop claiming, let in-flight
            // jobs land (each row is flushed as it is journaled), and
            // fall through to the normal finish.
            if (shutdownRequested())
                break;
            if (opts.stopAfter != 0 &&
                session.executed() >= opts.stopAfter)
                break;
            const std::size_t i = claims.claim();
            if (i == JobClaims::kNone)
                break;
            const ScenarioSpec &spec = *pending[i];
            session.board().jobStarted();
            JobResult r =
                executor.run(spec, superpositionEligible(i), label);
            claims.done(i);
            session.record(std::move(r), spec);
        }
    };

    if (width <= 1) {
        workerLoop(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(width);
        for (std::size_t t = 0; t < width; ++t)
            threads.emplace_back(workerLoop, t);
        for (std::thread &t : threads)
            t.join();
    }
    if (shutdownRequested())
        inform("sweep: shutdown requested; drained after ",
               session.executed(), " of ", pending.size(),
               " pending jobs (journal flushed)");

    // Give abandoned job threads a bounded chance to finish (joined),
    // detaching any that are still stuck.
    executor.reapAbandoned(
        std::max(2.0, 4.0 * opts.jobTimeoutSeconds));

    const SweepSummary sum = session.finish();
    IRTHERM_EVENT("sweep.done", {"plan", plan.name()},
                  {"executed", sum.executed}, {"ok", sum.ok},
                  {"failed", sum.failed}, {"timeout", sum.timedOut},
                  {"hung", sum.hung}, {"retried", sum.retried},
                  {"fallbacks", sum.fallbacks},
                  {"cached", sum.cached});
    batchSpan.attr("executed", sum.executed)
        .attr("ok", sum.ok)
        .attr("failed", sum.failed)
        .attr("timeout", sum.timedOut)
        .attr("hung", sum.hung);
    return sum;
}

} // namespace irtherm::sweep
