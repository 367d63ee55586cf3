/**
 * @file
 * Seeded randomized fault-campaign driver (FoundationDB-style
 * simulation testing, scaled to irtherm's surface).
 *
 * From a single 64-bit seed, each cycle derives an independent
 * SplitMix64 stream (seed, cycle index) and draws — in a fixed order,
 * before anything executes — a random-but-valid sweep plan, a random
 * IRTHERM_FAULTS spec over the fault-point catalog, and every
 * kill/resume parameter (where to stop, how many workers, who dies,
 * when). Because all draws happen up front, two runs with the same
 * seed generate byte-identical plans and fault specs no matter how
 * the runs themselves unfold.
 *
 * A cycle then runs one of two shapes:
 *
 *  - in-process: a single-worker sweep stopped partway (simulated
 *    kill), an *armed* resume (faults keep firing across the resume
 *    protocol: checkpoint rot, torn segments, corrupt lines), and a
 *    disarmed resume to completion;
 *  - multi-process: a real coordinator process and 1-3 real worker
 *    processes over loopback HTTP with the fault spec in their
 *    environment (each worker arms its share of every rule's count,
 *    so the fleet's budget is the spec's), SIGKILL delivered to a
 *    random victim (worker or the coordinator itself) at a random
 *    time, then a fresh disarmed coordinator + workers resuming to
 *    completion.
 *
 * After each cycle the invariant checker (campaign/invariants.hh)
 * must pass; a failing cycle dumps seed, generated plan, fault spec,
 * and a one-command replay line into <cycle dir>/repro.txt.
 */

#ifndef IRTHERM_CAMPAIGN_DRIVER_HH
#define IRTHERM_CAMPAIGN_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/invariants.hh"
#include "campaign/plan_gen.hh"

namespace irtherm::campaign
{

/** Campaign configuration. */
struct CampaignOptions
{
    /** The one input: everything else derives from it. */
    std::uint64_t seed = 0x1d5eedULL;
    /** Kill-and-resume cycles to run. */
    std::size_t cycles = 5;
    /** Stop starting new cycles once this much wall time has passed
     *  (0 = no budget). Never interrupts a running cycle. */
    double timeBudgetSeconds = 0.0;
    /** Campaign artifacts root; one subdirectory per cycle. */
    std::string outDir = "campaign_out";
    /** irtherm_cli binary for multi-process cycles; empty keeps the
     *  whole campaign in-process. */
    std::string cliPath;
    /** -1 = mixed (seed decides); 0 = in-process only; 1 = fleet
     *  only. Tests pin this to exercise one shape deterministically. */
    int forceKind = -1;
    /** Run only this cycle index (< 0 = all). Cycles are pure
     *  functions of (seed, index), so replaying one cycle of a failed
     *  campaign regenerates it exactly. */
    long onlyCycle = -1;
};

enum class CycleKind
{
    InProcess,
    MultiProcess
};

/**
 * Everything random about one cycle, drawn up front from the derived
 * stream. Exposed (with makeCycleSpec) so tests can assert that spec
 * generation is bit-replayable without running anything.
 */
struct CycleSpec
{
    std::size_t index = 0;
    CycleKind kind = CycleKind::InProcess;
    GeneratedPlan plan;
    std::string faultSpec;
    bool useCache = false;
    std::size_t segmentJobs = 2;
    /** In-process: stop the armed run after this many executions. */
    std::size_t stopAfter = 1;
    // Fleet-only knobs.
    int port = 0;
    std::size_t workers = 1;
    bool killCoordinator = false;
    std::size_t victimWorker = 0;
    double killDelaySeconds = 0.5;
};

/** Deterministically derive cycle @p index's spec. Pure. */
CycleSpec makeCycleSpec(const CampaignOptions &opts,
                        std::size_t index);

/** What one cycle did. */
struct CycleOutcome
{
    CycleSpec spec;
    InvariantReport report;
    /** Empty unless the cycle failed outside the invariant checker
     *  (spawn failure, unexpected exception, resume watchdog). */
    std::string error;
    bool passed = false;
    std::string dir; ///< the cycle's artifact directory
};

/** Whole-campaign verdict. */
struct CampaignSummary
{
    std::uint64_t seed = 0;
    std::size_t cyclesRun = 0;
    std::size_t cyclesPassed = 0;
    std::vector<CycleOutcome> outcomes;

    bool
    passed() const
    {
        return cyclesRun > 0 && cyclesPassed == cyclesRun;
    }
};

/**
 * The irtherm_campaign command line that replays exactly cycle
 * @p cycle of a campaign run with @p opts: `--seed S --cycles i+1
 * --only-cycle i`, plus `--cli <path>` when opts.cliPath is set and
 * `--in-process` when it is not. repro.txt and the tool's failure
 * line both print it.
 */
std::string replayCommand(const CampaignOptions &opts,
                          std::size_t cycle);

/** Run the campaign. Never throws for per-cycle failures — they land
 *  in the summary (and repro dumps); throws only for unusable
 *  configuration (e.g. an output directory that cannot be created). */
CampaignSummary runCampaign(const CampaignOptions &opts);

} // namespace irtherm::campaign

#endif // IRTHERM_CAMPAIGN_DRIVER_HH
