#include "numeric/impulse_cache.hh"

#include <algorithm>
#include <limits>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "numeric/iterative.hh"
#include "obs/metrics.hh"

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
    // is already ~1000x cheaper than the CG solve it replaces).
    for (std::size_t b = 0; b < blocks; ++b) {
        const double pw = blockPowers[b];
        if (pw == 0.0)
            continue;
        const double *col = values.data() + b * nodes;
        for (std::size_t i = 0; i < nodes; ++i)
            rd[i] += pw * col[i];
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

    if (wasHit != nullptr)
        *wasHit = false;
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
        cv.wait(lk);
    }

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
