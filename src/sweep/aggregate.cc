#include "sweep/aggregate.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/export.hh"
#include "sweep/json.hh"

namespace irtherm::sweep
{

namespace
{

double
requireNumber(const JsonValue &doc, const char *key,
              const std::string &context)
{
    const JsonValue &v = doc.at(key);
    if (!v.isNumber())
        configError(context, ": '", key, "' must be a number");
    return v.number;
}

std::uint64_t
requireCount(const JsonValue &doc, const char *key,
             const std::string &context)
{
    const double v = requireNumber(doc, key, context);
    if (v < 0.0)
        configError(context, ": '", key, "' must be non-negative");
    return static_cast<std::uint64_t>(v);
}

const JsonValue &
requireObject(const JsonValue &doc, const char *key,
              const std::string &context)
{
    const JsonValue &v = doc.at(key);
    if (!v.isObject())
        configError(context, ": '", key, "' must be an object");
    return v;
}

} // namespace

void
SweepAggregator::Stat::add(double v)
{
    if (count == 0) {
        min = v;
        max = v;
    } else {
        min = std::min(min, v);
        max = std::max(max, v);
    }
    ++count;
    sum += v;
}

void
SweepAggregator::TempHistogram::add(double celsius)
{
    stat.add(celsius);
    const std::int64_t bin = static_cast<std::int64_t>(
        std::floor(celsius / kTempBinWidth));
    ++bins[bin];
}

void
SweepAggregator::update(const JobResult &r)
{
    ++total;
    ++byStatus[static_cast<std::size_t>(r.status)];
    if (r.warmStarted)
        ++warmStarted;
    if (r.impulseCacheHit)
        ++impulseCacheHits;
    attempts += r.attempts;
    retries += r.resources.retries;

    wall.add(r.wallSeconds);
    ++wallBuckets[obs::Histogram::bucketIndex(r.wallSeconds)];

    const bool ok = r.status == JobStatus::Ok;
    if (ok) {
        peak.add(r.peakCelsius);
        gradient.add(r.gradientKelvin);
    }

    for (const auto &[key, value] : r.axisValues) {
        auto &cells = axes[key];
        auto it = cells.find(value);
        if (it == cells.end()) {
            if (cells.size() >= kMaxAxisValues) {
                ++axisDropped;
                continue;
            }
            it = cells.emplace(value, AxisCell{}).first;
        }
        AxisCell &cell = it->second;
        ++cell.count;
        cell.wallSum += r.wallSeconds;
        if (ok) {
            if (cell.ok == 0)
                cell.peakMax = r.peakCelsius;
            else
                cell.peakMax = std::max(cell.peakMax, r.peakCelsius);
            ++cell.ok;
            cell.peakSum += r.peakCelsius;
        }
    }

    // Streaming top-k: only bother when the candidate beats the
    // current floor (or the list is short).
    if (slowest.size() < kTopSlowest ||
        r.wallSeconds > slowest.back().wallSeconds) {
        SlowJob job;
        job.name = r.name;
        job.hash = r.hash;
        job.wallSeconds = r.wallSeconds;
        job.status = r.status;
        const auto pos = std::upper_bound(
            slowest.begin(), slowest.end(), job,
            [](const SlowJob &a, const SlowJob &b) {
                if (a.wallSeconds != b.wallSeconds)
                    return a.wallSeconds > b.wallSeconds;
                return a.name < b.name;
            });
        slowest.insert(pos, std::move(job));
        if (slowest.size() > kTopSlowest)
            slowest.pop_back();
    }
}

std::string
SweepAggregator::toJson() const
{
    std::string out = "{";
    out += "\"schema\":\"irtherm.sweep.aggregates.v1\"";
    out += ",\"jobs\":" + std::to_string(total);
    out += ",\"states\":{\"ok\":" +
           std::to_string(byStatus[static_cast<std::size_t>(
               JobStatus::Ok)]) +
           ",\"failed\":" +
           std::to_string(byStatus[static_cast<std::size_t>(
               JobStatus::Failed)]) +
           ",\"timeout\":" +
           std::to_string(byStatus[static_cast<std::size_t>(
               JobStatus::Timeout)]) +
           ",\"hung\":" +
           std::to_string(byStatus[static_cast<std::size_t>(
               JobStatus::Hung)]) +
           "}";
    out += ",\"warm_started\":" + std::to_string(warmStarted);
    out += ",\"impulse_cache_hits\":" +
           std::to_string(impulseCacheHits);
    out += ",\"attempts\":" + std::to_string(attempts);
    out += ",\"retries\":" + std::to_string(retries);

    auto statJson = [](const Stat &s) {
        std::string j = "{\"count\":" + std::to_string(s.count);
        j += ",\"sum\":" + obs::jsonNumber(s.sum);
        j += ",\"min\":" + obs::jsonNumber(s.count == 0 ? 0.0 : s.min);
        j += ",\"max\":" + obs::jsonNumber(s.count == 0 ? 0.0 : s.max);
        j += ",\"mean\":" +
             obs::jsonNumber(s.count == 0
                            ? 0.0
                            : s.sum / static_cast<double>(s.count));
        return j;
    };

    out += ",\"wall\":" + statJson(wall);
    const double lo = wall.count == 0 ? 0.0 : wall.min;
    const double hi = wall.count == 0 ? 0.0 : wall.max;
    out += ",\"p50\":" +
           obs::jsonNumber(obs::histogramQuantile(wallBuckets, lo, hi, 0.50));
    out += ",\"p95\":" +
           obs::jsonNumber(obs::histogramQuantile(wallBuckets, lo, hi, 0.95));
    out += ",\"p99\":" +
           obs::jsonNumber(obs::histogramQuantile(wallBuckets, lo, hi, 0.99));
    out += ",\"buckets\":{";
    bool first = true;
    for (std::size_t i = 0; i < wallBuckets.size(); ++i) {
        if (wallBuckets[i] == 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += "\"" + std::to_string(i) +
               "\":" + std::to_string(wallBuckets[i]);
    }
    out += "}}";

    auto tempJson = [&](const TempHistogram &h) {
        std::string j = statJson(h.stat);
        j += ",\"bin_width_c\":" + obs::jsonNumber(kTempBinWidth);
        j += ",\"bins\":{";
        bool f = true;
        for (const auto &[bin, count] : h.bins) {
            if (!f)
                j += ',';
            f = false;
            j += "\"" + std::to_string(bin) +
                 "\":" + std::to_string(count);
        }
        j += "}}";
        return j;
    };
    out += ",\"peak_c\":" + tempJson(peak);
    out += ",\"gradient_k\":" + tempJson(gradient);

    out += ",\"axes\":{";
    first = true;
    for (const auto &[key, cells] : axes) {
        if (!first)
            out += ',';
        first = false;
        out += "\"" + obs::jsonEscape(key) + "\":{";
        bool f = true;
        for (const auto &[value, cell] : cells) {
            if (!f)
                out += ',';
            f = false;
            out += "\"" + obs::jsonEscape(value) + "\":{";
            out += "\"count\":" + std::to_string(cell.count);
            out += ",\"ok\":" + std::to_string(cell.ok);
            out += ",\"peak_sum\":" + obs::jsonNumber(cell.peakSum);
            out += ",\"peak_max\":" + obs::jsonNumber(cell.peakMax);
            out += ",\"peak_mean\":" +
                   obs::jsonNumber(cell.ok == 0
                                  ? 0.0
                                  : cell.peakSum /
                                        static_cast<double>(cell.ok));
            out += ",\"wall_sum\":" + obs::jsonNumber(cell.wallSum);
            out += "}";
        }
        out += "}";
    }
    out += "}";
    out += ",\"axes_dropped\":" + std::to_string(axisDropped);

    out += ",\"top_slowest\":[";
    first = true;
    for (const SlowJob &job : slowest) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":\"" + obs::jsonEscape(job.name) + "\"";
        out += ",\"hash\":\"" + obs::jsonEscape(job.hash) + "\"";
        out += ",\"wall_s\":" + obs::jsonNumber(job.wallSeconds);
        out += ",\"status\":\"" +
               std::string(jobStatusName(job.status)) + "\"}";
    }
    out += "]}";
    return out;
}

void
SweepAggregator::restore(const JsonValue &doc,
                         const std::string &context)
{
    if (!doc.isObject())
        configError(context, ": aggregates must be an object");
    const JsonValue &schema = doc.at("schema");
    if (!schema.isString() ||
        schema.text != "irtherm.sweep.aggregates.v1") {
        configError(context, ": unsupported aggregates schema");
    }
    clear();

    total = requireCount(doc, "jobs", context);
    const JsonValue &states = requireObject(doc, "states", context);
    byStatus[static_cast<std::size_t>(JobStatus::Ok)] =
        requireCount(states, "ok", context);
    byStatus[static_cast<std::size_t>(JobStatus::Failed)] =
        requireCount(states, "failed", context);
    byStatus[static_cast<std::size_t>(JobStatus::Timeout)] =
        requireCount(states, "timeout", context);
    byStatus[static_cast<std::size_t>(JobStatus::Hung)] =
        requireCount(states, "hung", context);
    warmStarted = requireCount(doc, "warm_started", context);
    // Same schema version, later field: checkpoints written before
    // the impulse cache existed restore with zero hits.
    if (doc.find("impulse_cache_hits") != nullptr)
        impulseCacheHits =
            requireCount(doc, "impulse_cache_hits", context);
    attempts = requireCount(doc, "attempts", context);
    retries = requireCount(doc, "retries", context);

    auto restoreStat = [&](const JsonValue &v, Stat &s) {
        s.count = requireCount(v, "count", context);
        s.sum = requireNumber(v, "sum", context);
        s.min = requireNumber(v, "min", context);
        s.max = requireNumber(v, "max", context);
    };

    const JsonValue &w = requireObject(doc, "wall", context);
    restoreStat(w, wall);
    const JsonValue &buckets = requireObject(w, "buckets", context);
    for (const auto &[key, count] : buckets.members) {
        if (!count.isNumber())
            configError(context, ": bucket count must be a number");
        char *end = nullptr;
        const unsigned long long i =
            std::strtoull(key.c_str(), &end, 10);
        if (end != key.c_str() + key.size() ||
            i >= wallBuckets.size()) {
            configError(context, ": bad wall bucket index '", key,
                        "'");
        }
        wallBuckets[i] = static_cast<std::uint64_t>(count.number);
    }

    auto restoreTemp = [&](const char *key, TempHistogram &h) {
        const JsonValue &v = requireObject(doc, key, context);
        restoreStat(v, h.stat);
        const JsonValue &bins = requireObject(v, "bins", context);
        for (const auto &[bin, count] : bins.members) {
            if (!count.isNumber())
                configError(context, ": bin count must be a number");
            char *end = nullptr;
            const long long i = std::strtoll(bin.c_str(), &end, 10);
            if (end != bin.c_str() + bin.size())
                configError(context, ": bad temperature bin '", bin,
                            "'");
            h.bins[i] = static_cast<std::uint64_t>(count.number);
        }
    };
    restoreTemp("peak_c", peak);
    restoreTemp("gradient_k", gradient);

    const JsonValue &axesDoc = requireObject(doc, "axes", context);
    for (const auto &[key, cells] : axesDoc.members) {
        if (!cells.isObject())
            configError(context, ": axis '", key,
                        "' must be an object");
        auto &dst = axes[key];
        for (const auto &[value, cellDoc] : cells.members) {
            if (!cellDoc.isObject())
                configError(context, ": axis cell must be an object");
            AxisCell cell;
            cell.count = requireCount(cellDoc, "count", context);
            cell.ok = requireCount(cellDoc, "ok", context);
            cell.peakSum = requireNumber(cellDoc, "peak_sum", context);
            cell.peakMax = requireNumber(cellDoc, "peak_max", context);
            cell.wallSum = requireNumber(cellDoc, "wall_sum", context);
            dst.emplace(value, cell);
        }
    }
    axisDropped = requireCount(doc, "axes_dropped", context);

    const JsonValue &top = doc.at("top_slowest");
    if (!top.isArray())
        configError(context, ": 'top_slowest' must be an array");
    for (const JsonValue &jobDoc : top.items) {
        if (!jobDoc.isObject())
            configError(context, ": top_slowest entry must be an object");
        SlowJob job;
        const JsonValue &name = jobDoc.at("name");
        const JsonValue &hash = jobDoc.at("hash");
        const JsonValue &status = jobDoc.at("status");
        if (!name.isString() || !hash.isString() || !status.isString())
            configError(context, ": malformed top_slowest entry");
        job.name = name.text;
        job.hash = hash.text;
        job.wallSeconds = requireNumber(jobDoc, "wall_s", context);
        job.status = parseJobStatus(status.text);
        slowest.push_back(std::move(job));
    }
    std::sort(slowest.begin(), slowest.end(),
              [](const SlowJob &a, const SlowJob &b) {
                  if (a.wallSeconds != b.wallSeconds)
                      return a.wallSeconds > b.wallSeconds;
                  return a.name < b.name;
              });
    if (slowest.size() > kTopSlowest)
        slowest.resize(kTopSlowest);
}

void
SweepAggregator::clear()
{
    *this = SweepAggregator();
}

} // namespace irtherm::sweep
