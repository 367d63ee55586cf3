/**
 * @file
 * One run of a plan, whoever executes its jobs: runSweep() on local
 * threads, or the fabric coordinator (fabric/coordinator.hh) through
 * a worker fleet. The session owns what both share — the ResultStore
 * and its resume, the pending queue, the tally of each terminal
 * result, the read-only HTTP routes, and the final reports — so the
 * two drivers cannot drift apart. runSweep keeps
 * its JobExecutor, worker threads and superposition gate; the
 * coordinator keeps its lease table, fleet board and trace store.
 */

#ifndef IRTHERM_SWEEP_SESSION_HH
#define IRTHERM_SWEEP_SESSION_HH

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sweep/plan.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "sweep/status.hh"

namespace irtherm::obs
{
class HttpServer;
}

namespace irtherm::sweep
{

class SweepSession
{
  public:
    /**
     * Expand @p plan, open the store under opts.outDir (reloading it
     * with opts.resume), and queue the jobs left to execute: journaled
     * hashes are skipped, repeated hashes collapse to their first
     * occurrence, and hashes opts.sharedCacheLookup answers are
     * journaled from the cache with this plan's axis values. @p plan
     * must outlive the session.
     */
    SweepSession(const SweepPlan &plan, const SweepOptions &opts);

    /** Scenarios still to execute, in plan order. */
    const std::vector<const ScenarioSpec *> &pending() const
    {
        return queue;
    }

    /** The summary's fields fixed at construction (total, cached,
     *  duplicates, sharedCacheHits, quarantined, paths). */
    const SweepSummary &summary() const { return sum; }

    /** Live progress behind /status. */
    SweepStatusBoard &board() { return status; }

    /** Jobs recorded so far. */
    std::size_t executed() const;

    /**
     * Journal one executed job's terminal result with the plan's axis
     * values, hand an Ok one to opts.sharedCacheStore right after it
     * is journaled, and tally it: the summary, the sweep.jobs.*,
     * sweep.warm_start.hits and resilience.jobs.hung counters, a
     * sweep.job.done instant, and a warning for a job that failed,
     * timed out or hung. Thread-safe.
     */
    void record(JobResult r, const ScenarioSpec &spec);

    /**
     * Serve /status, /metrics, /healthz and /aggregates on @p server. @p statusMembers, when set, returns further
     * `"key":value` members for the /status document; @p metricsText,
     * when set, returns text appended to /metrics.
     */
    void route(obs::HttpServer &server,
               std::function<std::string()> statusMembers = {},
               std::function<std::string()> metricsText = {});

    /** Write the reports (opts.writeReports; span sweep.reports) and
     *  return the summary. */
    SweepSummary finish();

  private:
    void attachAxes(JobResult &r, const ScenarioSpec &spec) const;

    const SweepPlan &plan;
    const SweepOptions opts;
    const std::vector<ScenarioSpec> jobs;
    ResultStore store;
    std::vector<const ScenarioSpec *> queue;
    SweepStatusBoard status;
    mutable std::mutex mu; ///< guards the tallied fields of sum
    SweepSummary sum;
};

} // namespace irtherm::sweep

#endif // IRTHERM_SWEEP_SESSION_HH
