/**
 * @file
 * Declarative scenario descriptions and their canonical identity.
 *
 * A ScenarioSpec is a flat, sorted map of setting keys to canonical
 * value strings — everything one run needs: which floorplan, which
 * cooling package (forwarded to core/config_io keys under the
 * `config.` prefix), which powers, which integrator, which outputs.
 * Keeping the spec textual gives three things for free:
 *
 *  - a canonical serialization (sorted "key=value" lines) that is
 *    independent of the order fields appeared in the plan file;
 *  - a deterministic 64-bit FNV-1a scenario hash over that
 *    serialization, used as the result-cache / journal key; and
 *  - trivially mergeable overrides (axis assignments are just map
 *    inserts), which is what the SweepPlan expander needs.
 *
 * resolve() turns the textual spec into the typed objects the
 * simulator consumes, with config_io-style strictness: unknown keys
 * are fatal.
 *
 * Recognized keys:
 *   name                   display label (excluded from the hash)
 *   floorplan              "preset:ev6" | "preset:athlon" | "flp:<path>"
 *   power.uniform          watts applied to every block
 *   power.block.<NAME>     per-block override (applied after uniform)
 *   ptrace                 HotSpot .ptrace path (steady: its average)
 *   ptrace.sampling        trace sample interval, seconds
 *   mode                   "steady" (default) | "transient"
 *   integrator             "auto" | "rk4" | "be"
 *   solver.max_iterations  steady CG iteration budget
 *   solver.tolerance       steady CG relative tolerance
 *   solver.fallback        bool (default true): escalate failed
 *                          solves through the verified fallback
 *                          chain; off = fail fast on first
 *                          non-convergence
 *   solver.preconditioner  "jacobi" | "mg" (default): primary-tier
 *                          CG preconditioner; "mg" is the bordered
 *                          V-cycle on grid stacks and Jacobi in
 *                          block mode
 *   solver.superposition   bool (default true): answer repeated
 *                          steady solves of one stack from the
 *                          cached impulse-response matrix (every
 *                          answer is residual-verified; misses
 *                          demote to the iterative chain)
 *   outputs.map            bool: write <hash>.map.{csv,ppm} (grid mode)
 *   config.<key>           any core/config_io key (cooling,
 *                          oil_velocity, model_mode, grid_nx, ...)
 */

#ifndef IRTHERM_SWEEP_SCENARIO_HH
#define IRTHERM_SWEEP_SCENARIO_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "core/simulator.hh"
#include "floorplan/floorplan.hh"
#include "numeric/linear_operator.hh"
#include "power/power_trace.hh"

namespace irtherm::sweep
{

/** 64-bit FNV-1a over a byte string (the scenario hash function). */
std::uint64_t fnv1a64(const std::string &bytes);

/** 16-digit lowercase hex form of a 64-bit hash. */
std::string hashHex(std::uint64_t hash);

/** Typed, ready-to-run form of a scenario (resolve() output). */
struct ResolvedScenario
{
    std::string name;
    Floorplan floorplan;
    SimulationConfig config;
    /** Per-block powers for the steady solve (trace average when a
     *  ptrace is given). */
    std::vector<double> blockPowers;
    /** Full trace, loaded only for transient scenarios. */
    std::optional<PowerTrace> trace;
    bool transient = false;
    IntegratorKind integrator = IntegratorKind::Auto;
    std::size_t maxIterations = 100000;
    double tolerance = 1e-11;
    /** Escalate failed solves through the fallback chain. */
    bool solverFallback = true;
    /** Primary-tier CG preconditioner for the steady solve. */
    PreconditionerKind preconditioner = PreconditionerKind::Multigrid;
    /** Allow the impulse-response superposition fast path. */
    bool superposition = true;
    bool writeMap = false;
};

/**
 * One declarative scenario: sorted setting key -> canonical value.
 *
 * The scenario and stack hashes are computed together on first use
 * and kept until the next set(), so a sweep hashes each job once no
 * matter how many readers ask. The memo is atomic: const readers on
 * several threads may share one spec, hashed or not.
 */
class ScenarioSpec
{
  public:
    /** Set (or override) one setting. */
    void set(const std::string &key, const std::string &value);

    /** Value of a key, or nullptr when unset. */
    const std::string *find(const std::string &key) const;

    const std::map<std::string, std::string> &settings() const
    {
        return values;
    }

    /** Display label: the `name` setting, or the hash when unnamed. */
    std::string displayName() const;

    /**
     * Sorted "key=value" lines over every setting except `name`.
     * Two specs describing the same run serialize identically no
     * matter what order their fields were written in.
     */
    std::string canonicalSerialization() const;

    /** FNV-1a over canonicalSerialization(): the result-cache key. */
    std::uint64_t hash() const;

    /** hash() as 16 hex digits (journal / file-name form). */
    std::string hashHex() const;

    /**
     * Hash over the *stack-defining* subset of the settings —
     * `floorplan` and every `config.*` key. Scenarios with equal
     * stack hashes share an RC network topology, so a completed
     * neighbor's temperature field is a valid CG warm start.
     */
    std::uint64_t stackHash() const;

    /** Validate every key and build the typed run description. */
    ResolvedScenario resolve() const;

  private:
    /** hash() and stackHash() once computed; copies with the spec. */
    struct HashMemo
    {
        std::atomic<std::uint64_t> scenario{0};
        std::atomic<std::uint64_t> stack{0};
        std::atomic<bool> valid{false};

        HashMemo() = default;
        // noexcept keeps ScenarioSpec nothrow-movable, so a growing
        // std::vector of specs moves them instead of copying.
        HashMemo(const HashMemo &other) noexcept { *this = other; }
        HashMemo &operator=(const HashMemo &other) noexcept;
    };

    /** The memo, filled on first use. */
    const HashMemo &hashes() const;

    std::map<std::string, std::string> values;
    mutable HashMemo memo;
};

} // namespace irtherm::sweep

#endif // IRTHERM_SWEEP_SCENARIO_HH
