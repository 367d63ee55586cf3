/**
 * @file
 * Workloads and their seeded inputs.
 *
 * Every round of every workload is a pure function of (seed, round):
 * the sweep plan text and any power-trace files it names are
 * generated here and handed to the program as files and text, exactly
 * as a user would hand them to `irtherm_cli sweep`. Rounds draw fresh
 * stacks, so no round can be answered from a cache an earlier round
 * filled.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench
{

enum class Workload
{
    SharedStack,   ///< few stacks, many steady jobs each (superposed)
    DistinctStack, ///< one stack per steady job (iterative CG)
    Transient,     ///< seeded power-trace replays (BE grid, RK4 block)
    Fabric,        ///< coordinator + HTTP workers, cheap block jobs
};

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload w);

/** Job threads of a sweep, and worker threads of the fabric. */
constexpr std::size_t kJobThreads = 2;

/** Sleep between polls of an empty lease queue (fabric). */
constexpr double kFabricPollSeconds = 0.002;

/**
 * Generate round @p round of workload @p w from @p seed: the plan, as
 * the JSON text handed to SweepPlan::parse. Power traces the plan
 * names are written under @p dir, which must exist.
 */
std::string makeRound(Workload w, std::uint64_t seed, std::size_t round,
                      const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
