/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * The resilience layer (solver fallback chains, job retry, journal
 * quarantine) only earns its keep if its failure paths are actually
 * exercised, so irtherm compiles a FaultInjector into every build —
 * inert unless explicitly armed. The hot-path cost of a disarmed
 * injector is one relaxed atomic load per probe site.
 *
 * Arming: programmatically via FaultInjector::global().arm(spec), or
 * from the environment (IRTHERM_FAULTS) / the CLI (`sweep --faults`).
 * A spec is a comma-separated list of rules:
 *
 *     point[:opt=value]...
 *
 * Points probed by the codebase:
 *     cg.nan            poison the CG residual with a NaN
 *     cg.diverge        force the iterative solve to report divergence
 *     mg.diverge        poison one multigrid V-cycle output with NaN
 *                       (robust_solve must demote mg-cg to jacobi-cg)
 *     impulse.corrupt   poison one column of a freshly built
 *                       impulse-response matrix with large finite
 *                       garbage (only the independent residual check
 *                       can catch it; the job must demote to the
 *                       iterative chain and still complete)
 *     chol.corrupt      poison one direct (sparse Cholesky) answer,
 *                       an implicit integrator step or an impulse-
 *                       build column, with large finite garbage (its
 *                       residual check must reject it; CG answers the
 *                       step, MG-CG the column)
 *     job.stall         sleep inside a sweep job (watchdog bait)
 *     journal.corrupt   scramble bytes of one journal line
 *     journal.truncate  write only a prefix of one journal line
 *     lease.lost        fabric coordinator forgets a live lease (as
 *                       if it expired); the holder's next renew gets
 *                       410 and the jobs are re-leased — completes
 *                       for them must still land exactly once
 *     worker.die        fabric worker dies after leasing a batch but
 *                       before completing it (stops renewing and
 *                       reporting); the lease must expire and the
 *                       jobs re-lease with zero duplicate work
 *     complete.dup      fabric worker re-sends a successful
 *                       /complete batch; the coordinator must drop
 *                       every row as a duplicate
 *     cache.corrupt     scramble a shared result-cache entry as it is
 *                       read; the cache must evict the entry and
 *                       report a miss — a corrupt entry is never
 *                       served as a result
 *
 * The catalog above is exported programmatically as
 * FaultInjector::knownPoints() (name + layer + effect + expected
 * recovery), and the `faultpoint` namespace names each point as a
 * constant so probe sites and tests never spell a raw string that
 * arm() could not have validated.
 *
 * Rule options:
 *     match=<substr>  only fire when the probe's scope key (e.g. the
 *                     sweep job name) contains <substr>
 *     count=<n>       fire at most n times (default 1)
 *     after=<k>       skip the first k matching probes (default 0)
 *     prob=<p>        fire with probability p per eligible probe,
 *                     drawn from the injector's own seeded Rng —
 *                     deterministic run-to-run (default 1)
 *     seconds=<s>     payload parameter (job.stall duration, 0.2 s
 *                     default)
 *
 * Options bind to their rule with ':'; rules separate with ','.
 * Example: IRTHERM_FAULTS="cg.nan:match=hot:count=2,job.stall:seconds=0.5"
 *
 * Probes report through obs: counter `resilience.faults.injected`
 * and an event per fire, so an armed run leaves an audit trail.
 */

#ifndef IRTHERM_BASE_FAULT_INJECTION_HH
#define IRTHERM_BASE_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/rng.hh"

namespace irtherm
{

/**
 * The injection points the codebase probes, as constants. Probe sites
 * and fault-spec generators reference these instead of raw string
 * literals, so a renamed point is a compile error, not a probe that
 * silently never fires.
 */
namespace faultpoint
{
inline constexpr const char *CgNan = "cg.nan";
inline constexpr const char *CgDiverge = "cg.diverge";
inline constexpr const char *MgDiverge = "mg.diverge";
inline constexpr const char *ImpulseCorrupt = "impulse.corrupt";
inline constexpr const char *CholCorrupt = "chol.corrupt";
inline constexpr const char *JobStall = "job.stall";
inline constexpr const char *JournalCorrupt = "journal.corrupt";
inline constexpr const char *JournalTruncate = "journal.truncate";
inline constexpr const char *LeaseLost = "lease.lost";
inline constexpr const char *WorkerDie = "worker.die";
inline constexpr const char *CompleteDup = "complete.dup";
inline constexpr const char *CacheCorrupt = "cache.corrupt";
} // namespace faultpoint

/** One entry of the programmatic fault-point catalog. */
struct FaultPoint
{
    const char *name;     ///< spec name, e.g. "cg.nan"
    const char *layer;    ///< subsystem that probes it
    const char *effect;   ///< what firing does
    const char *recovery; ///< what the system must do about it
};

class FaultInjector
{
  public:
    /**
     * Process-wide injector. First access parses IRTHERM_FAULTS from
     * the environment (empty/unset leaves it disarmed).
     */
    static FaultInjector &global();

    /**
     * Every injection point the codebase probes, with its layer,
     * effect, and expected recovery. arm() validates specs against
     * exactly this list; the campaign driver draws from it; the
     * DESIGN §14 table documents it.
     */
    static const std::vector<FaultPoint> &knownPoints();

    /**
     * Replace all rules with @p spec (see file comment for the
     * grammar); ConfigError on a malformed spec. An empty spec
     * disarms.
     */
    void arm(const std::string &spec);

    /** Remove every rule; probes return to the single-load path. */
    void disarm();

    /** True when at least one rule is loaded. */
    bool
    armed() const
    {
        return armedFlag.load(std::memory_order_relaxed);
    }

    /**
     * Probe: should the fault at @p point fire now? @p key is the
     * probe's scope (the current ScopedContext when empty). Updates
     * occurrence counters — a firing rule is consumed toward its
     * `count`. Always false when disarmed.
     */
    bool shouldFire(const char *point, const std::string &key = {});

    /**
     * Numeric payload of the most specific armed rule for @p point
     * (e.g. seconds for job.stall); @p fallback when absent.
     */
    double param(const char *point, const char *name,
                 double fallback) const;

    /** Total fires across all rules since the last arm(). */
    std::uint64_t fired() const;

    /**
     * RAII scope key: probes without an explicit key (deep in the
     * numeric layer) match against the innermost active context on
     * the current thread, so a sweep job can be targeted by name
     * from any depth.
     */
    class ScopedContext
    {
      public:
        explicit ScopedContext(std::string key);
        ~ScopedContext();
        ScopedContext(const ScopedContext &) = delete;
        ScopedContext &operator=(const ScopedContext &) = delete;
    };

    /** Innermost active context key on this thread ("" when none). */
    static const std::string &currentContext();

  private:
    struct Rule
    {
        std::string point;
        std::string match; ///< substring filter on the scope key
        std::uint64_t count = 1;
        std::uint64_t after = 0;
        double prob = 1.0;
        /** name=value payload options (e.g. seconds). */
        std::vector<std::pair<std::string, double>> params;
        // Mutable occurrence state.
        std::uint64_t seen = 0;
        std::uint64_t firedCount = 0;
    };

    std::atomic<bool> armedFlag{false};
    mutable std::mutex mu;
    std::vector<Rule> rules;
    Rng rng; ///< deterministic prob= draws
    std::uint64_t totalFired = 0;
};

} // namespace irtherm

#endif // IRTHERM_BASE_FAULT_INJECTION_HH
