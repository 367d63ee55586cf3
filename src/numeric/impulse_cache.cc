#include "numeric/impulse_cache.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "numeric/iterative.hh"
#include "numeric/vec2.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{

void
ImpulseResponseMatrix::superpose(const std::vector<double> &blockPowers,
                                 std::vector<double> &rise) const
{
    if (blockPowers.size() != blocks)
        fatal("ImpulseResponseMatrix::superpose: ", blockPowers.size(),
              " powers for ", blocks, " blocks");
    rise.assign(nodes, 0.0);
    double *rd = rise.data();
    // Column-major accumulation in fixed block order: deterministic
    // regardless of caller threading (the GEMV itself is serial; it
    // is already ~1000x cheaper than the CG solve it replaces). Four
    // powered columns share one pass over the rise vector, two
    // entries per V2 lane pair, and each entry still adds them one
    // at a time in block order, so the answer does not depend on how
    // the columns are grouped.
    const double *col[4];
    double pw[4];
    std::size_t k = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        if (blockPowers[b] == 0.0)
            continue;
        col[k] = values.data() + b * nodes;
        pw[k] = blockPowers[b];
        if (++k < 4)
            continue;
        const double *c0 = col[0], *c1 = col[1], *c2 = col[2],
                     *c3 = col[3];
        const V2 s0 = splat(pw[0]), s1 = splat(pw[1]);
        const V2 s2 = splat(pw[2]), s3 = splat(pw[3]);
        std::size_t i = 0;
        for (; i + 2 <= nodes; i += 2)
            store2(rd + i, load2(rd + i) + s0 * load2(c0 + i) +
                               s1 * load2(c1 + i) + s2 * load2(c2 + i) +
                               s3 * load2(c3 + i));
        for (; i < nodes; ++i)
            rd[i] = rd[i] + pw[0] * c0[i] + pw[1] * c1[i] +
                    pw[2] * c2[i] + pw[3] * c3[i];
        k = 0;
    }
    for (std::size_t j = 0; j < k; ++j) {
        const double *c = col[j];
        const V2 s = splat(pw[j]);
        std::size_t i = 0;
        for (; i + 2 <= nodes; i += 2)
            store2(rd + i, load2(rd + i) + s * load2(c + i));
        for (; i < nodes; ++i)
            rd[i] += pw[j] * c[i];
    }
}

ImpulseResponseCache::ImpulseResponseCache(std::size_t capacityBytes)
    : capacity(capacityBytes)
{
}

ImpulseResponseCache &
ImpulseResponseCache::global()
{
    static ImpulseResponseCache cache;
    return cache;
}

void
ImpulseResponseCache::publishBytes() const
{
    obs::MetricsRegistry::global()
        .gauge("sweep.impulse_cache.bytes")
        .set(static_cast<double>(bytes_));
}

void
ImpulseResponseCache::evictFor(std::size_t need)
{
    static obs::Counter &evictions =
        obs::MetricsRegistry::global().counter(
            "sweep.impulse_cache.evictions");
    while (bytes_ + need > capacity) {
        auto victim = entries.end();
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            if (it->second.building)
                continue;
            if (victim == entries.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == entries.end())
            break; // nothing evictable; caller skips caching
        bytes_ -= victim->second.matrix->bytes();
        entries.erase(victim);
        evictions.add();
    }
}

std::shared_ptr<const ImpulseResponseMatrix>
ImpulseResponseCache::acquire(std::uint64_t key, const Builder &build,
                              bool *wasHit)
{
    static obs::Counter &hits =
        obs::MetricsRegistry::global().counter(
            "sweep.impulse_cache.hits");
    static obs::Counter &misses =
        obs::MetricsRegistry::global().counter(
            "sweep.impulse_cache.misses");
    static obs::Counter &waits =
        obs::MetricsRegistry::global().counter(
            "sweep.impulse_cache.waits");

    if (wasHit != nullptr)
        *wasHit = false;
    // Declared before the lock: a wait that ends in a hit records
    // its span after unlocking.
    std::optional<obs::ScopedSpan> waitSpan;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        auto it = entries.find(key);
        if (it == entries.end())
            break;
        if (!it->second.building) {
            it->second.lastUse = ++useClock;
            hits.add();
            if (wasHit != nullptr)
                *wasHit = true;
            return it->second.matrix;
        }
        // Another worker is solving the impulse problems for this
        // stack; wait rather than duplicate k CG solves.
        if (!waitSpan) {
            waits.add();
            waitSpan.emplace("sweep.build_wait");
            waitSpan->attr("on", "impulse");
        }
        cv.wait(lk);
    }
    // A wait ends here only when the build it waited on failed;
    // this call builds instead.
    waitSpan.reset();

    Entry &slot = entries[key];
    slot.building = true;
    misses.add();
    lk.unlock();

    std::shared_ptr<ImpulseResponseMatrix> built;
    try {
        built = build();
    } catch (...) {
        lk.lock();
        entries.erase(key);
        cv.notify_all();
        throw;
    }

    lk.lock();
    if (!built) {
        entries.erase(key);
        cv.notify_all();
        return nullptr;
    }

    if (FaultInjector::global().shouldFire(faultpoint::ImpulseCorrupt) &&
        !built->values.empty()) {
        // Poison one response column with large-but-finite garbage:
        // only the independent residual check can catch this (a NaN
        // would already trip the finiteness guard).
        const std::size_t col =
            (built->blocks - 1) * built->nodes;
        for (std::size_t i = 0; i < built->nodes; ++i)
            built->values[col + i] = 1e12;
    }

    const std::size_t sz = built->bytes();
    if (sz > capacity) {
        // Usable answer, but never retained: keeps a single oversized
        // stack from pinning the whole budget.
        entries.erase(key);
        cv.notify_all();
        return built;
    }
    evictFor(sz);
    if (bytes_ + sz > capacity) {
        entries.erase(key);
        cv.notify_all();
        return built;
    }
    Entry &e = entries[key];
    e.matrix = built;
    e.building = false;
    e.lastUse = ++useClock;
    bytes_ += sz;
    publishBytes();
    cv.notify_all();
    return built;
}

void
ImpulseResponseCache::invalidate(std::uint64_t key)
{
    static obs::Counter &demotions =
        obs::MetricsRegistry::global().counter(
            "sweep.impulse_cache.demotions");
    std::lock_guard<std::mutex> lk(mu);
    auto it = entries.find(key);
    if (it == entries.end() || it->second.building)
        return;
    bytes_ -= it->second.matrix->bytes();
    entries.erase(it);
    demotions.add();
    publishBytes();
}

void
ImpulseResponseCache::clear()
{
    std::lock_guard<std::mutex> lk(mu);
    for (auto it = entries.begin(); it != entries.end();) {
        if (it->second.building) {
            ++it;
        } else {
            bytes_ -= it->second.matrix->bytes();
            it = entries.erase(it);
        }
    }
    publishBytes();
}

std::size_t
ImpulseResponseCache::bytesInUse() const
{
    std::lock_guard<std::mutex> lk(mu);
    return bytes_;
}

std::size_t
ImpulseResponseCache::entryCount() const
{
    std::lock_guard<std::mutex> lk(mu);
    return entries.size();
}

void
ImpulseResponseCache::setCapacityBytes(std::size_t bytes)
{
    std::lock_guard<std::mutex> lk(mu);
    capacity = bytes;
    evictFor(0);
    publishBytes();
}

} // namespace irtherm
