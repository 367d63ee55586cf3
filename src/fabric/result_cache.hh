/**
 * @file
 * Shared content-addressed store of completed scenario results.
 *
 * A scenario's 64-bit FNV-1a hash covers every setting that affects
 * its simulation (sweep/scenario.hh), so the hash *is* the result:
 * any plan, any process, any machine sharing this directory can
 * answer a repeated sub-scenario from `<dir>/<hash>.json` instead of
 * re-simulating it. The payload is the JobResult's own journal-line
 * serialization — doubles travel in obs::jsonNumber's shortest
 * round-trip spelling, which parses back to the same IEEE 754 bits,
 * so a cache hit is bit-for-bit identical to the direct simulation
 * that produced it.
 *
 * Only Ok results are stored: a failure or timeout may be transient
 * (a flaky disk, an overloaded worker), and caching it would pin the
 * failure forever.
 *
 * Concurrency: writes go to a per-process temp file and rename into
 * place, so two workers storing the same hash race benignly (both
 * wrote identical content) and readers never see a torn file. A
 * corrupt entry (torn by a crash mid-rename on a non-POSIX
 * filesystem, or hand-edited) reads as a miss and is evicted.
 */

#ifndef IRTHERM_FABRIC_RESULT_CACHE_HH
#define IRTHERM_FABRIC_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "sweep/result_store.hh"
#include "sweep/runner.hh"

namespace irtherm::fabric
{

class ResultCache
{
  public:
    /** Open (creating if needed) the cache directory @p dir. */
    explicit ResultCache(const std::string &dir);

    /**
     * Fetch the cached Ok result for @p hash into @p out. False on a
     * miss; a corrupt or non-Ok entry counts as a miss (and a corrupt
     * one is evicted).
     */
    bool lookup(const std::string &hash, sweep::JobResult &out) const;

    /** Store an Ok result under its scenario hash; non-Ok results
     *  are ignored (see file comment). */
    void store(const sweep::JobResult &result) const;

    /** Point @p opts's shared-cache hooks at this cache: lookup, and
     *  store too unless @p publish is false. The cache must outlive
     *  every sweep run with @p opts. */
    void attach(sweep::SweepOptions &opts, bool publish = true) const;

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t stores() const { return stores_.load(); }

    const std::string &directory() const { return dir_; }

    /** `<dir>/<hash>.json` for one entry. */
    std::string entryPath(const std::string &hash) const;

  private:
    std::string dir_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> stores_{0};
};

} // namespace irtherm::fabric

#endif // IRTHERM_FABRIC_RESULT_CACHE_HH
