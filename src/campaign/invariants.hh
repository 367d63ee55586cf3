/**
 * @file
 * The invariant checker a campaign cycle runs after its
 * kill-and-resume sequence. Four properties, each of which earlier
 * PRs claim and targeted tests spot-check — the campaign asserts
 * them over *randomly composed* failures:
 *
 *  I1 zero-duplicate-work: the journal holds at most one row per
 *     scenario hash.
 *  I2 journaled-ok-preserved: every Ok row present before a resume
 *     is still present — byte-identical — after it; resume never
 *     loses or re-executes completed work.
 *  I3 cache-bit-identity: every shared-cache entry is bit-identical
 *     (modulo timing/provenance) to the journaled result of the same
 *     scenario hash — a cache hit is indistinguishable from direct
 *     simulation.
 *  I4 disarmed-replay: two disarmed single-worker runs of the same
 *     generated plan produce bit-identical physics (normalized
 *     journals equal byte for byte).
 *
 * Normalization zeroes wall time, resource accounting, and worker
 * provenance — everything that legitimately differs between two
 * executions of the same scenario — and compares the rest of the
 * JSONL line exactly.
 */

#ifndef IRTHERM_CAMPAIGN_INVARIANTS_HH
#define IRTHERM_CAMPAIGN_INVARIANTS_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sweep/result_store.hh"

namespace irtherm::campaign
{

/** One named invariant verdict. */
struct InvariantCheck
{
    std::string name;
    bool passed = false;
    std::string detail;
};

/** The verdict list for one campaign cycle. */
struct InvariantReport
{
    std::vector<InvariantCheck> checks;

    void add(const std::string &name, bool passed,
             const std::string &detail = "");
    bool passed() const;
    /** Multi-line "  [PASS|FAIL] name: detail" block. */
    std::string summary() const;
};

/** Journal rows keyed by scenario hash. Unparsable lines are counted
 *  into @p skipped (when non-null), not thrown — a campaign journal
 *  legitimately holds fault-damaged lines until resume quarantines
 *  them. Duplicate hashes keep the first row (I1 reports them). */
std::map<std::string, sweep::JobResult>
loadJournalRows(const std::string &dir,
                std::size_t *skipped = nullptr);

/** The row's JSONL line with wall time, resources, and worker
 *  provenance zeroed — the bit-identity comparison form. */
std::string normalizedLine(const sweep::JobResult &row);

/** I1 over @p dir's journal. */
void checkNoDuplicateWork(const std::string &dir,
                          InvariantReport &report);

/** I2: @p before was captured mid-crash, @p after at completion. */
void checkJournaledOkPreserved(
    const std::map<std::string, sweep::JobResult> &before,
    const std::map<std::string, sweep::JobResult> &after,
    InvariantReport &report);

/** I3: every entry of @p cacheDir vs the matching row in @p rows. */
void checkCacheBitIdentity(
    const std::string &cacheDir,
    const std::map<std::string, sweep::JobResult> &rows,
    InvariantReport &report);

/** I4: @p a and @p b are normalized-bit-identical journals. @p label
 *  names the comparison in the verdict (e.g. "ref_a-vs-ref_b"). */
void checkBitIdenticalReplay(
    const std::map<std::string, sweep::JobResult> &a,
    const std::map<std::string, sweep::JobResult> &b,
    const std::string &label, InvariantReport &report);

} // namespace irtherm::campaign

#endif // IRTHERM_CAMPAIGN_INVARIANTS_HH
