/**
 * @file
 * Random-but-valid sweep plan generation for fault campaigns.
 *
 * A campaign cycle needs a plan that is (a) cheap enough to run many
 * times per cycle (armed run, armed resume, disarmed resume, two
 * disarmed reference runs, a cache re-run), (b) rich enough to cover
 * the solver/preconditioner/superposition configuration space, and
 * (c) optionally *fleet-safe*: every job on a distinct stack hash, so
 * no warm-start or superposition coupling between jobs and per-job
 * results are bit-identical no matter which worker executes them in
 * what order — the precondition for comparing a distributed run's
 * journal against a single-process reference.
 *
 * All randomness flows through the caller's SplitMix64, so a plan is
 * a pure function of the stream position: the same seed regenerates
 * the identical plan JSON byte for byte.
 */

#ifndef IRTHERM_CAMPAIGN_PLAN_GEN_HH
#define IRTHERM_CAMPAIGN_PLAN_GEN_HH

#include <string>

#include "base/rng.hh"
#include "sweep/plan.hh"

namespace irtherm::campaign
{

/** A generated plan: the exact JSON text (kept verbatim for repro
 *  dumps) plus its parsed form. */
struct GeneratedPlan
{
    std::string json;
    sweep::SweepPlan plan;
    /** Every job has a distinct stack hash (config-only axes). */
    bool fleetSafe = false;
};

/**
 * Draw a plan from @p rng. With @p fleetSafe the axes are config.*
 * only (grid dims, cooling), so the cross product never repeats a
 * stack hash; otherwise power axes may join the cross product,
 * exercising warm starts and the impulse-superposition path (an ev6
 * plan with three uniform and three block powers holds nine jobs per
 * stack, enough for the runner to superpose). Plans expand to
 * between 2 and 36 jobs on small steady grids.
 */
GeneratedPlan generatePlan(SplitMix64 &rng, bool fleetSafe);

} // namespace irtherm::campaign

#endif // IRTHERM_CAMPAIGN_PLAN_GEN_HH
