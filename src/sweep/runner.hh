/**
 * @file
 * Batch job runner: schedules expanded scenarios across worker
 * threads with failure isolation, per-job deadlines, a per-stack
 * cache of assembled models and warm starts, and journal-backed
 * resume.
 *
 * Scheduling model: the runner owns its worker threads (one job per
 * worker), and each job runs its solves on its own thread (the
 * numeric kernels are serial). The parallelism of a sweep is its
 * jobs side by side.
 *
 * Claim order: a worker takes the earliest unclaimed job whose stack
 * is not warming, and waits on a warming stack only when every
 * unclaimed job belongs to one. A stack with at least two pending
 * jobs warms from the claim of its first job until that job returns
 * (that job builds the model and impulse response the others would
 * wait for), so idle workers start other stacks' builds side by
 * side. One worker never skips: `workers == 1` runs the plan in
 * order.
 *
 * Failure isolation: a job that throws (bad scenario key, missing
 * file, diverging CG solve) is recorded as `failed` with the error
 * text and its taxonomy class (base/errors.hh); its siblings are
 * unaffected. Retryable classes (numeric, io) get up to
 * SweepOptions::maxRetries fresh attempts with exponential backoff.
 * A job that exceeds the per-job deadline at a cooperative
 * checkpoint (resolve, model build, every 32 transient samples) is
 * recorded as `timeout`; one that is still unresponsive at the
 * watchdog's hard deadline (timeout x grace factor) has its thread
 * abandoned and is recorded as `hung`.
 *
 * Stack cache: jobs sharing a stack hash (same floorplan + config
 * keys, i.e. the same RC network) share what depends only on the
 * network. Each JobExecutor keeps one entry per stack hash holding
 *  - the assembled StackModel, built once: concurrent jobs of the
 *    stack wait for the single build and share its model (if the
 *    build throws, each job of the stack builds on its own and fails
 *    the same way); StackModel is immutable, so sharing needs no lock;
 *  - the last completed job's steady temperature-rise vector, which
 *    seeds the next job's steady CG solve (a warm start).
 * Lifetime: runSweep counts its pending jobs per stack and hands the
 * counts to the executor (JobExecutor::expectJobs) before any job
 * starts. A model is kept only while its stack still has jobs left,
 * and the entry goes with the stack's last job, so a plan whose
 * every job has its own stack keeps nothing. Bound: at most one
 * model per job thread (SweepOptions::workers) is kept; past that
 * the least recently used is dropped and rebuilt when next needed
 * (bit-identical), so an interleaved plan cannot pin one model per
 * stack. An executor that was never given counts (a fabric worker,
 * which cannot know them) assembles a model per job and keeps only
 * warm starts. Telemetry: counters sweep.stack_cache.{builds,hits,
 * evictions,waits}, gauge sweep.stack_cache.models (models kept), and
 * per job the spans sweep.resolve, core.assemble (on the job that
 * builds the model), sweep.build_wait (on=model|impulse, on a job
 * that waits for another job's model or impulse build),
 * core.summarize and sweep.map_write, with model=built|reused on
 * sweep.job.
 *
 * Bookkeeping (store, resume, queue, tally, reports) is the
 * SweepSession the fabric coordinator drives too (sweep/session.hh).
 * With SweepOptions::resume, previously journaled hashes are skipped
 * entirely — a re-run of a completed sweep performs zero simulations.
 */

#ifndef IRTHERM_SWEEP_RUNNER_HH
#define IRTHERM_SWEEP_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sweep/plan.hh"
#include "sweep/result_store.hh"

namespace irtherm::sweep
{

/** Runner configuration. */
struct SweepOptions
{
    /** Output directory: journal, reports, per-job map files. */
    std::string outDir = "sweep_out";
    /** Concurrent jobs; 0 = one per hardware thread. */
    std::size_t workers = 0;
    /** Per-job deadline in seconds; 0 disables. Checked at phase
     *  boundaries, so a job overruns by at most one phase. */
    double jobTimeoutSeconds = 0.0;
    /**
     * Extra executions allowed for a job whose failure class is
     * retryable (NumericError / IoError); config errors and timeouts
     * never retry. 0 disables retry.
     */
    std::size_t maxRetries = 2;
    /** First-retry delay; doubles per subsequent retry. */
    double retryBackoffSeconds = 0.05;
    /**
     * With a deadline set, each job runs under a watchdog: a job
     * still unresponsive at jobTimeoutSeconds * watchdogGraceFactor
     * (i.e. past every cooperative checkpoint; floored at deadline
     * + 0.5 s so tiny deadlines keep resolving cooperatively) is
     * abandoned and recorded as `hung`. Must be >= 1.
     */
    double watchdogGraceFactor = 1.5;
    /** Skip scenarios already present in the journal. */
    bool resume = false;
    /**
     * Steady jobs sharing one stack hash switch to the
     * impulse-response superposition path once the plan holds at
     * least this many of them (building the response matrix costs
     * one solve per block, so it must amortize). 0 disables
     * superposition for the whole sweep; scenarios can also opt out
     * individually with `solver.superposition false`.
     */
    std::size_t superpositionMinJobs = 8;
    /** Write report.csv / report.json after the batch. */
    bool writeReports = true;
    /**
     * Stop claiming new jobs once this many have executed (0 = run
     * all). This simulates a killed process for the resume tests —
     * the journal then holds exactly the executed jobs. Exact with
     * workers == 1; with more workers in-flight jobs still finish.
     */
    std::size_t stopAfter = 0;
    /**
     * Serve live telemetry (/metrics, /status, /healthz) for the
     * duration of the sweep: -1 disables, 0 picks an ephemeral port,
     * anything else binds that port. The server lives on one
     * listener thread and binds serveBindAddress.
     */
    int servePort = -1;
    /** Bind address for the status server (loopback by default; see
     *  the security note in obs/http_server.hh). */
    std::string serveBindAddress = "127.0.0.1";
    /**
     * Called once the status server is listening, with the bound
     * port (resolves servePort == 0). Runs before any job starts, so
     * tests and scripts can connect while the sweep is in flight.
     */
    std::function<void(int)> onServerStart;
    /**
     * Shared content-addressed result cache, injected as hooks so the
     * sweep layer stays independent of where the cache lives (the
     * fabric's on-disk store, a test double, ...). lookup returns
     * true and fills @p out when the scenario hash has a cached Ok
     * result; store is called with every fresh Ok result. Either may
     * be empty (no shared cache).
     */
    std::function<bool(const std::string &hash, JobResult &out)>
        sharedCacheLookup;
    std::function<void(const JobResult &)> sharedCacheStore;
};

/** What a sweep did, plus where it wrote its artifacts. */
struct SweepSummary
{
    std::size_t total = 0;      ///< expanded scenarios
    std::size_t executed = 0;   ///< simulated this run
    std::size_t ok = 0;         ///< executed and succeeded
    std::size_t failed = 0;     ///< executed and failed
    std::size_t timedOut = 0;   ///< executed and hit the deadline
    std::size_t hung = 0;       ///< abandoned by the watchdog
    std::size_t cached = 0;     ///< skipped: journaled by a prior run
    std::size_t duplicates = 0; ///< skipped: same hash earlier in plan
    std::size_t warmStarted = 0;///< executed with a CG warm start
    /** Jobs answered from the verified impulse-response cache. */
    std::size_t impulseCacheHits = 0;
    /** Jobs answered from the shared content-addressed result cache
     *  (SweepOptions::sharedCacheLookup) instead of simulated. */
    std::size_t sharedCacheHits = 0;
    std::size_t retried = 0;    ///< jobs that needed > 1 attempt
    std::size_t fallbacks = 0;  ///< jobs whose solve used a fallback
    std::size_t quarantined = 0;///< journal lines set aside on resume
    std::string outDir;
    std::string journalPath;
    std::string csvPath;  ///< empty unless reports were written
    std::string jsonPath; ///< empty unless reports were written
};

/**
 * Single-job execution engine: everything between "here is a
 * scenario" and "here is its terminal JobResult" — failure isolation,
 * bounded retry with backoff, the cooperative deadline and watchdog
 * hard deadline, the stack cache (see the top of this file), and
 * resource accounting across attempts. runSweep() drives one of these from
 * its scheduler threads; a fabric worker drives one from its lease
 * loop — the same engine either way, so local and distributed
 * execution of a scenario cannot diverge.
 *
 * Thread-safe: run() may be called from several threads at once
 * (runSweep does exactly that). Destruction gives watchdog-abandoned
 * threads a bounded chance to finish.
 */
class JobExecutor
{
  public:
    explicit JobExecutor(const SweepOptions &opts);
    ~JobExecutor();

    JobExecutor(const JobExecutor &) = delete;
    JobExecutor &operator=(const JobExecutor &) = delete;

    /**
     * Run @p spec to a terminal state: retries, deadline, watchdog.
     * @p allowSuperposition gates the impulse-response fast path
     * (the caller knows whether enough same-stack jobs exist for the
     * response matrix to amortize); @p workerLabel names the logical
     * worker in spans and /status. Never throws for per-job failures.
     */
    JobResult run(const ScenarioSpec &spec,
                  bool allowSuperposition = false,
                  const std::string &workerLabel = "");

    /**
     * Count jobs about to run per stack (ScenarioSpec::stackHash() ->
     * jobs; adds to earlier counts). A counted stack keeps its
     * assembled model between its jobs until run() has returned for
     * the last of them; jobs of uncounted stacks assemble their own.
     * Call before running the counted jobs.
     */
    void expectJobs(
        const std::map<std::uint64_t, std::size_t> &jobsPerStack);

    /** Join watchdog-abandoned job threads that finish within
     *  @p budgetSeconds total; detach the rest. */
    void reapAbandoned(double budgetSeconds);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/** Expand @p plan and run it to completion under @p opts. */
SweepSummary runSweep(const SweepPlan &plan, const SweepOptions &opts);

} // namespace irtherm::sweep

#endif // IRTHERM_SWEEP_RUNNER_HH
