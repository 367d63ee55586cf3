/**
 * @file
 * Random fault-spec composition for campaigns.
 *
 * Draws 1-3 rules over a caller-supplied subset of the fault-point
 * catalog (FaultInjector::knownPoints()) with random count=/after=/
 * prob= knobs, and serializes them in the exact IRTHERM_FAULTS
 * grammar — the generated spec is what the driver arms in-process
 * and what it puts into the environment of spawned fleet processes,
 * and it round-trips through FaultInjector::arm() by construction.
 */

#ifndef IRTHERM_CAMPAIGN_FAULT_GEN_HH
#define IRTHERM_CAMPAIGN_FAULT_GEN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "base/rng.hh"

namespace irtherm::campaign
{

/**
 * Compose a random IRTHERM_FAULTS spec over @p eligible points
 * (names from the known-point catalog). Up to three rules, each on a
 * distinct point; job.stall rules carry a small seconds= payload so
 * campaigns never block on a long injected sleep.
 */
std::string generateFaultSpec(
    SplitMix64 &rng, const std::vector<const char *> &eligible);

/**
 * Worker @p worker's share (0-based, of @p workers) of @p spec's
 * fault budget. Each process arms its own injector, so a fleet whose
 * workers each armed the whole spec could fire every rule once per
 * worker; with shares, the workers together fire each rule at most
 * its count= times (1 when absent), as one process would. A rule's
 * count splits as evenly as integers allow, the first workers taking
 * the remainder; a rule whose share is 0 is left out, and its other
 * options keep their place.
 */
std::string shareFaultBudget(const std::string &spec,
                             std::size_t worker, std::size_t workers);

} // namespace irtherm::campaign

#endif // IRTHERM_CAMPAIGN_FAULT_GEN_HH
