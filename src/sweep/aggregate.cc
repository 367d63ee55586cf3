#include "sweep/aggregate.hh"

#include <algorithm>
#include <cmath>

#include "obs/export.hh"

namespace irtherm::sweep
{

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
SweepAggregator::clear()
{
    *this = SweepAggregator();
}

} // namespace irtherm::sweep
