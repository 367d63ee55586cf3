#include "fabric/result_cache.hh"

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "obs/metrics.hh"

namespace irtherm::fabric
{

ResultCache::ResultCache(const std::string &dir) : dir_(dir)
{
    if (dir_.empty())
        configError("fabric: cache directory must not be empty");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        ioError("fabric: cannot create cache directory '", dir_,
                "': ", ec.message());
}

std::string
ResultCache::entryPath(const std::string &hash) const
{
    return (std::filesystem::path(dir_) / (hash + ".json")).string();
}

bool
ResultCache::lookup(const std::string &hash,
                    sweep::JobResult &out) const
{
    const std::string path = entryPath(hash);
    std::ifstream in(path);
    if (!in) {
        ++misses_;
        return false;
    }
    std::string line;
    std::getline(in, line);
    // Injected bit rot on the read path: mangle the entry so the
    // normal corrupt-entry handling below (evict + miss) runs — a
    // damaged entry must never be served as a result.
    if (FaultInjector::global().shouldFire(faultpoint::CacheCorrupt,
                                           hash)) {
        for (std::size_t i = 1; i < line.size(); i += 7)
            line[i] = '#';
    }
    try {
        sweep::JobResult r = sweep::JobResult::fromJsonLine(
            line, "cache entry '" + path + "'");
        if (r.hash != hash || r.status != sweep::JobStatus::Ok)
            configError("cache entry '", path,
                        "': hash mismatch or non-ok result");
        out = std::move(r);
    } catch (const FatalError &e) {
        warn("fabric: evicting corrupt cache entry '", path, "' (",
             e.what(), ")");
        in.close();
        std::error_code ec;
        std::filesystem::remove(path, ec);
        ++misses_;
        return false;
    }
    ++hits_;
    obs::MetricsRegistry::global()
        .counter("fabric.cache.hits")
        .add();
    return true;
}

void
ResultCache::store(const sweep::JobResult &result) const
{
    if (result.status != sweep::JobStatus::Ok || result.hash.empty())
        return;
    const std::string path = entryPath(result.hash);
    // Per-process temp name: two workers storing the same hash must
    // not interleave writes into one temp file. The renames race, but
    // toward identical content.
    const std::string tmp =
        path + ".tmp" + std::to_string(::getpid());
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (!f)
            ioError("fabric: cannot write cache entry '", tmp, "'");
        f << result.toJsonLine() << "\n";
        f.flush();
        if (!f)
            ioError("fabric: short write to '", tmp, "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        ioError("fabric: cannot seal cache entry '", path, "'");
    }
    ++stores_;
    obs::MetricsRegistry::global()
        .counter("fabric.cache.stores")
        .add();
}

void
ResultCache::attach(sweep::SweepOptions &opts, bool publish) const
{
    opts.sharedCacheLookup = [this](const std::string &hash,
                                    sweep::JobResult &out) {
        return lookup(hash, out);
    };
    opts.sharedCacheStore = nullptr;
    if (publish)
        opts.sharedCacheStore = [this](const sweep::JobResult &r) {
            store(r);
        };
}

} // namespace irtherm::fabric
