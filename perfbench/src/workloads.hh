/**
 * @file
 * One round of a workload, three ways:
 *
 *  - end to end, through the program's public entry points
 *    (sweep::runSweep, or fabric::runCoordinator plus
 *    fabric::runWorker threads), timed from outside only;
 *  - replayed, through the layers' public functions in the order the
 *    real path calls them, with a bench span around each call;
 *  - checked, by reading the round's journal back and re-solving a
 *    seeded sample of its jobs on the reference path.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "inputs.hh"
#include "layers.hh"

namespace perfbench
{

/** What one end-to-end round measured. */
struct RoundResult
{
    /** Plan text handed to SweepPlan::parse -> first journaled result. */
    double setupSeconds = 0.0;
    /** First journaled result -> the entry point returns. */
    double drainSeconds = 0.0;
    /** Plan text handed to SweepPlan::parse -> the entry point returns. */
    double wallSeconds = 0.0;
    std::size_t ok = 0;
};

RoundResult runEndToEnd(Workload w, const std::string &planText,
                        const std::string &outDir);

/** What one replayed round measured, besides its spans. */
struct ReplayResult
{
    /** Plan text handed to SweepPlan::parse -> journal finalized. */
    double wallSeconds = 0.0;
    std::size_t attempted = 0;
    std::size_t ok = 0;
    /** ThermalSimulator::advance calls. */
    std::size_t transientSteps = 0;
    // Fabric lease loop.
    std::size_t leaseCalls = 0;
    std::size_t completeCalls = 0;
    std::size_t grants = 0;     ///< non-empty lease grants
    std::size_t leasedJobs = 0;
    std::size_t emptyPolls = 0; ///< empty grants before the sweep ended
    /** JobResult::fromJsonLine over every reported result, timed
     *  after the round (the coordinator's decode cost, mirrored). */
    double decodeSeconds = 0.0;
};

/** Replay a round, logging bench spans to @p log. Threads are bench
 *  slots 0 (main) and 1..kJobThreads. */
ReplayResult runReplay(Workload w, const std::string &planText,
                       const std::string &outDir, SpanLog &log);

/** Outcome of the output check of one round. */
struct CheckResult
{
    std::size_t jobs = 0;
    /** Jobs missing from the journal or not Ok. */
    std::size_t notOk = 0;
    std::size_t sampled = 0;
    /** Sampled jobs whose journaled summary disagrees with the
     *  reference re-solve. */
    std::size_t mismatches = 0;
    std::string firstProblem;
};

/**
 * Check the journal in @p outDir against the round's plan: every job
 * Ok, and a sample drawn from @p sampleSeed agreeing with the
 * reference path (steady: 1e-6 K against a fresh non-superposed,
 * non-warm-started solve; transient: 1e-9 K against an independent
 * replay of the same trace). @p corrupt perturbs the first sampled
 * result first, to prove the check can fail.
 */
CheckResult checkRound(Workload w, const std::string &planText,
                       const std::string &outDir,
                       std::uint64_t sampleSeed, bool corrupt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
