#include "sweep/runner.hh"

#include <algorithm>
#include <atomic>
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
#include <thread>
#include <utility>

#include "analysis/thermal_map.hh"
#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "base/shutdown.hh"
#include "base/resource_usage.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "obs/export.hh"
#include "obs/http_server.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sweep/dashboard.hh"
#include "sweep/report.hh"
#include "sweep/status.hh"

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

        std::unique_lock<std::mutex> lock(mu);
        const auto it = entries.find(stack);
        if (it != entries.end() && it->second.model.valid()) {
            it->second.lastUse = ++useClock;
            const std::shared_future<ModelPtr> kept = it->second.model;
            lock.unlock();
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
    const std::vector<double> cells =
        model.siliconCellTemperatures(nodes);
    double hi = -std::numeric_limits<double>::infinity();
    double lo = std::numeric_limits<double>::infinity();
    for (const double t : cells) {
        hi = std::max(hi, t);
        lo = std::min(lo, t);
    }
    r.peakCelsius = toCelsius(hi);
    r.minCelsius = toCelsius(lo);
    r.gradientKelvin = hi - lo;

    const std::vector<double> blockMax =
        model.blockMaxTemperatures(nodes);
    const std::vector<double> blockMean =
        model.blockTemperatures(nodes);
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
            // Keep the warm start fresh even on superposed jobs: a
            // demoted neighbor still gets a good starting guess.
            std::vector<double> rise = nodes;
            for (double &t : rise)
                t -= rs.config.package.ambient;
            stacks.storeRise(stack, std::move(rise));
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

/** RAII: run sweep jobs with the numeric-kernel pool disabled. */
class SerialKernelGuard
{
  public:
    SerialKernelGuard() : wasEnabled(ThreadPool::parallelEnabled())
    {
        ThreadPool::setParallelEnabled(false);
    }
    ~SerialKernelGuard()
    {
        ThreadPool::setParallelEnabled(wasEnabled);
    }
    SerialKernelGuard(const SerialKernelGuard &) = delete;
    SerialKernelGuard &operator=(const SerialKernelGuard &) = delete;

  private:
    bool wasEnabled;
};

} // namespace

struct JobExecutor::Impl
{
    SweepOptions opts;
    /** Jobs solve single-threaded; the executor's threads (or the
     *  fabric's processes) provide the parallelism. */
    SerialKernelGuard serialKernels;
    /** One kept model per job thread: enough for every worker to
     *  drain a different stack without rebuilding. */
    std::shared_ptr<StackCache> stacks = std::make_shared<StackCache>(
        opts.workers != 0 ? opts.workers
                          : ThreadPool::plannedGlobalThreads());
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
    auto &reg = obs::MetricsRegistry::global();
    const SweepOptions &opts = impl->opts;
    JobResult r;
    std::size_t attempt = 1;
    JobResources acc; ///< resource totals across attempts
    {
        obs::ScopedTimer jobTimer(reg.timer("sweep.job_time"));
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
            reg.counter("resilience.retry.attempts").add();
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

    SweepSummary sum;
    sum.outDir = opts.outDir;

    const std::vector<ScenarioSpec> jobs = plan.expand();
    sum.total = jobs.size();
    reg.gauge("sweep.plan.jobs").set(static_cast<double>(sum.total));

    ResultStoreOptions storeOptions;
    storeOptions.segmentJobs = opts.segmentJobs;
    ResultStore store(opts.outDir, storeOptions);
    sum.journalPath = store.journalPath();
    if (opts.resume) {
        const std::size_t journaled = store.loadJournal();
        sum.quarantined = store.quarantined();
        sum.quarantinedSegments = store.quarantinedSegments();
        IRTHERM_EVENT("sweep.resume", {"plan", plan.name()},
                      {"journaled", journaled},
                      {"quarantined", sum.quarantined},
                      {"quarantined_segments",
                       sum.quarantinedSegments});
    }

    // Pending = not journaled, not in the shared cache, first
    // occurrence of its hash.
    std::vector<const ScenarioSpec *> pending;
    std::set<std::string> queued;
    for (const ScenarioSpec &spec : jobs) {
        const std::string hash = spec.hashHex();
        if (store.has(hash)) {
            ++sum.cached;
            reg.counter("sweep.jobs.cached").add();
            continue;
        }
        if (!queued.insert(hash).second) {
            ++sum.duplicates;
            reg.counter("sweep.jobs.duplicate").add();
            continue;
        }
        JobResult cachedResult;
        if (opts.sharedCacheLookup &&
            opts.sharedCacheLookup(hash, cachedResult)) {
            // Content-addressed hit: the stored result came from a
            // prior run of this exact scenario, so journal it here
            // verbatim — except the axis assignments, which belong
            // to the plan being run, not the plan that produced it.
            cachedResult.axisValues.clear();
            for (const SweepAxis &axis : plan.axes()) {
                if (const std::string *v = spec.find(axis.key))
                    cachedResult.axisValues.emplace_back(axis.key, *v);
            }
            store.add(cachedResult);
            ++sum.sharedCacheHits;
            reg.counter("sweep.shared_cache.hits").add();
            continue;
        }
        pending.push_back(&spec);
    }

    // Jobs per stack hash. The executor keeps a stack's model while
    // the stack has jobs left; a stack whose steady jobs cross the
    // superposition threshold amortizes its impulse-response build
    // (one solve per block) across all of them.
    std::map<std::uint64_t, std::size_t> stackJobs;
    std::map<std::uint64_t, std::size_t> steadyStackJobs;
    for (const ScenarioSpec *spec : pending) {
        const std::uint64_t stack = spec->stackHash();
        ++stackJobs[stack];
        const std::string *mode = spec->find("mode");
        if (mode == nullptr || *mode == "steady")
            ++steadyStackJobs[stack];
    }
    const auto superpositionEligible = [&](const ScenarioSpec &spec) {
        if (opts.superpositionMinJobs == 0)
            return false;
        const auto it = steadyStackJobs.find(spec.stackHash());
        return it != steadyStackJobs.end() &&
               it->second >= opts.superpositionMinJobs;
    };

    IRTHERM_EVENT("sweep.start", {"plan", plan.name()},
                  {"jobs", sum.total}, {"pending", pending.size()},
                  {"cached", sum.cached},
                  {"shared_cache_hits", sum.sharedCacheHits});

    JobExecutor executor(opts);
    executor.expectJobs(stackJobs);
    std::atomic<std::size_t> nextJob{0};
    std::atomic<std::size_t> executed{0};
    std::mutex sumMu;

    std::size_t width =
        opts.workers != 0 ? opts.workers
                          : ThreadPool::plannedGlobalThreads();
    width = std::max<std::size_t>(1, std::min(width, pending.size()));

    // Live telemetry: the board aggregates counters; the server (if
    // asked for) exposes it plus Prometheus metrics for the sweep's
    // duration. Handlers run on the listener thread and only read
    // shared state through their own locks.
    SweepStatusBoard board;
    board.begin(plan.name(), sum.total, pending.size(), sum.cached,
                width);
    obs::HttpServer server;
    if (opts.servePort >= 0) {
        server.route("/status", [&board] {
            return obs::HttpResponse{200, "application/json",
                                     board.statusJson() + "\n"};
        });
        server.route("/metrics", [&reg] {
            return obs::HttpResponse{
                200, "text/plain; version=0.0.4; charset=utf-8",
                obs::metricsToPrometheus(reg)};
        });
        server.route("/healthz", [] {
            return obs::HttpResponse{200,
                                     "text/plain; charset=utf-8",
                                     "ok\n"};
        });
        // Continuous aggregates: O(1) in sweep size by construction
        // (the store folds each job in as it lands).
        server.route("/aggregates", [&store] {
            return obs::HttpResponse{200, "application/json",
                                     store.aggregatesJson() + "\n"};
        });
        server.route("/dashboard", [] {
            return obs::HttpResponse{200,
                                     "text/html; charset=utf-8",
                                     dashboardHtml()};
        });
        server.start(opts.servePort, opts.serveBindAddress);
        inform("sweep: serving /status /metrics /healthz /aggregates "
               "/dashboard on ",
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
            // jobs land, and fall through to the normal finalize path
            // (journal flushed, open segment sealed, final aggregate
            // checkpoint written).
            if (shutdownRequested())
                break;
            if (opts.stopAfter != 0 &&
                executed.load(std::memory_order_relaxed) >=
                    opts.stopAfter)
                break;
            const std::size_t i =
                nextJob.fetch_add(1, std::memory_order_relaxed);
            if (i >= pending.size())
                break;
            const ScenarioSpec &spec = *pending[i];
            board.jobStarted();
            JobResult r = executor.run(
                spec, superpositionEligible(spec), label);
            // Journal the axis assignment with the result so the
            // aggregates can group by axis value without the plan.
            for (const SweepAxis &axis : plan.axes()) {
                if (const std::string *v = spec.find(axis.key))
                    r.axisValues.emplace_back(axis.key, *v);
            }
            store.add(r);
            if (r.status == JobStatus::Ok && opts.sharedCacheStore)
                opts.sharedCacheStore(r);
            board.jobFinished(r.status);
            executed.fetch_add(1, std::memory_order_relaxed);
            reg.counter("sweep.jobs.executed").add();
            IRTHERM_EVENT("sweep.job.done", {"name", r.name},
                          {"hash", r.hash},
                          {"status", jobStatusName(r.status)},
                          {"peak_c", r.peakCelsius},
                          {"wall_s", r.wallSeconds});
            std::lock_guard<std::mutex> lock(sumMu);
            switch (r.status) {
              case JobStatus::Ok:
                ++sum.ok;
                reg.counter("sweep.jobs.ok").add();
                break;
              case JobStatus::Failed:
                ++sum.failed;
                reg.counter("sweep.jobs.failed").add();
                warn("sweep: job '", r.name, "' failed: ", r.error);
                break;
              case JobStatus::Timeout:
                ++sum.timedOut;
                reg.counter("sweep.jobs.timeout").add();
                warn("sweep: job '", r.name, "' timed out after ",
                     r.wallSeconds, " s");
                break;
              case JobStatus::Hung:
                ++sum.hung;
                reg.counter("resilience.jobs.hung").add();
                warn("sweep: job '", r.name,
                     "' hung; thread abandoned after ", r.wallSeconds,
                     " s");
                break;
            }
            if (r.warmStarted) {
                ++sum.warmStarted;
                reg.counter("sweep.warm_start.hits").add();
            }
            if (r.impulseCacheHit)
                ++sum.impulseCacheHits;
            if (r.attempts > 1)
                ++sum.retried;
            if (r.fallbackTier > 0)
                ++sum.fallbacks;
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
    sum.executed = executed.load();
    if (shutdownRequested())
        inform("sweep: shutdown requested; drained after ",
               sum.executed, " of ", pending.size(),
               " pending jobs (journal sealed, checkpoint written)");

    // Give abandoned job threads a bounded chance to finish (joined),
    // detaching any that are still stuck.
    executor.reapAbandoned(
        std::max(2.0, 4.0 * opts.jobTimeoutSeconds));

    // Seal the remaining buffered rows and checkpoint the aggregates
    // so the next resume (and sweep_report) start from O(1) state.
    store.finalize();

    if (opts.writeReports) {
        const std::filesystem::path dir(opts.outDir);
        sum.csvPath = (dir / "report.csv").string();
        sum.jsonPath = (dir / "report.json").string();
        std::ofstream csv(sum.csvPath);
        if (!csv)
            fatal("sweep: cannot write ", sum.csvPath);
        writeSweepCsv(csv, plan, jobs, store);
        std::ofstream json(sum.jsonPath);
        if (!json)
            fatal("sweep: cannot write ", sum.jsonPath);
        writeSweepJson(json, plan, jobs, store, sum);
    }

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
