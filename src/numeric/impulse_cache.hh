/**
 * @file
 * Bounded cache of steady-state impulse-response matrices.
 *
 * The steady thermal problem G * rise = p is linear in the power
 * vector, and a sweep hammers one stack (one G) with thousands of
 * power vectors. Following the superposition method of Kemper et
 * al. ("Ultrafast Temperature Profile Calculation in IC Chips"),
 * solving G r_b = p_hat_b once per block b — p_hat_b being the node
 * injection of one watt into block b — yields a nodes x blocks
 * response matrix R with rise = R * blockPowers for *any* power
 * assignment: thousands of CG solves collapse into one factorization
 * plus a dense GEMV per job.
 *
 * Trust discipline: a cached answer is never taken on faith. Every
 * superposed solution is re-verified against the *actual* conductance
 * matrix with the same independent residual check robustSolve applies
 * to its tiers (`checkSolution`); a miss demotes the job to the
 * iterative chain and invalidates the entry. The `impulse.corrupt`
 * fault point poisons one cached column to prove that path end to
 * end.
 *
 * The cache is content-addressed by the sweep's ScenarioSpec
 * stackHash (any knob that changes G changes the key) and bounded in
 * bytes with least-recently-used eviction. Concurrent workers
 * requesting the same key block until the single builder finishes.
 */

#ifndef IRTHERM_NUMERIC_IMPULSE_CACHE_HH
#define IRTHERM_NUMERIC_IMPULSE_CACHE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "numeric/linear_operator.hh"

namespace irtherm
{

/** Node rise per watt for each block (column-major nodes x blocks). */
struct ImpulseResponseMatrix
{
    std::size_t nodes = 0;
    std::size_t blocks = 0;
    /** values[b * nodes + i] = rise at node i per watt into block b. */
    std::vector<double> values;

    /** rise = R * blockPowers. @pre blockPowers.size() == blocks */
    void superpose(const std::vector<double> &blockPowers,
                   std::vector<double> &rise) const;

    std::size_t
    bytes() const
    {
        return values.capacity() * sizeof(double) + sizeof(*this);
    }
};

/**
 * Byte-bounded LRU cache of response matrices keyed by stack hash.
 * Thread-safe; metrics under `sweep.impulse_cache.*`.
 */
class ImpulseResponseCache
{
  public:
    static constexpr std::size_t kDefaultCapacityBytes =
        std::size_t(256) << 20;

    explicit ImpulseResponseCache(
        std::size_t capacityBytes = kDefaultCapacityBytes);

    /** Process-wide instance used by the sweep runner. */
    static ImpulseResponseCache &global();

    /** Produces the matrix on a miss; null / throw mean unusable. */
    using Builder =
        std::function<std::shared_ptr<ImpulseResponseMatrix>()>;

    /**
     * Matrix for @p key, building it via @p build on first use. Only
     * one builder runs per key; concurrent callers wait, each wait
     * counted in `sweep.impulse_cache.waits` and timed by a
     * `sweep.build_wait` span with on=impulse. Returns
     * null when the build failed (callers fall back to the iterative
     * chain). A matrix larger than the whole capacity is returned
     * but not retained. @p wasHit (optional) reports whether the
     * matrix came from the cache rather than this call's builder.
     */
    std::shared_ptr<const ImpulseResponseMatrix>
    acquire(std::uint64_t key, const Builder &build,
            bool *wasHit = nullptr);

    /**
     * Drop @p key after a failed verification so the next job
     * rebuilds from scratch; counts a demotion.
     */
    void invalidate(std::uint64_t key);

    void clear();
    std::size_t bytesInUse() const;
    std::size_t entryCount() const;

    /** Re-bound the cache (tests); evicts immediately if shrinking. */
    void setCapacityBytes(std::size_t bytes);

  private:
    struct Entry
    {
        std::shared_ptr<ImpulseResponseMatrix> matrix;
        bool building = false;
        std::uint64_t lastUse = 0;
    };

    /** Evict LRU ready entries until @p need bytes fit. mu held. */
    void evictFor(std::size_t need);
    void publishBytes() const;

    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Entry> entries;
    std::size_t capacity;
    std::size_t bytes_ = 0;
    std::uint64_t useClock = 0;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_IMPULSE_CACHE_HH
