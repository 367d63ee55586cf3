#include "obs/export.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "base/fault_injection.hh"
#include "base/table.hh"
#include "obs/trace_clock.hh"

namespace irtherm::obs
{

namespace
{

std::string
jsonString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

void
appendHistogramJson(std::ostringstream &os, const Histogram &h)
{
    os << "{\"count\":" << h.count()
       << ",\"sum\":" << jsonNumber(h.sum())
       << ",\"mean\":" << jsonNumber(h.mean());
    if (h.count() > 0) {
        os << ",\"min\":" << jsonNumber(h.min())
           << ",\"max\":" << jsonNumber(h.max())
           << ",\"p50\":" << jsonNumber(histogramQuantile(h, 0.50))
           << ",\"p95\":" << jsonNumber(histogramQuantile(h, 0.95))
           << ",\"p99\":" << jsonNumber(histogramQuantile(h, 0.99));
    }
    os << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
        const std::uint64_t c = h.bucketCount(i);
        if (c == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"lo\":" << jsonNumber(Histogram::bucketLowerBound(i))
           << ",\"hi\":" << jsonNumber(Histogram::bucketUpperBound(i))
           << ",\"count\":" << c << "}";
    }
    os << "]}";
}

} // namespace

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/**
 * Pull the fault injector's fired count (base/ cannot depend on
 * obs/, so the injector keeps its own atomic) into a gauge at export
 * time, so an instrumented run's stats dump proves whether the
 * injection campaign reached its targets. Only the global registry
 * gets it — custom registries used in tests stay exactly as their
 * owners populated them.
 */
void
syncFaultGauge(const MetricsRegistry &reg)
{
    if (&reg != &MetricsRegistry::global())
        return;
    MetricsRegistry::global()
        .gauge("resilience.faults.injected")
        .set(static_cast<double>(FaultInjector::global().fired()));
}

} // namespace

std::string
metricsToJson(const MetricsRegistry &reg)
{
    syncFaultGauge(reg);
    const auto names = reg.names();

    std::ostringstream os;
    os << "{\"schema\":\"irtherm.stats.v1\",\"metrics_enabled\":"
       << (kMetricsEnabled ? "true" : "false")
       << ",\"wall_start_unix_s\":"
       << jsonNumber(wallClockStartUnixSeconds());

    for (const MetricKind kind :
         {MetricKind::Counter, MetricKind::Gauge, MetricKind::Timer,
          MetricKind::Histogram}) {
        switch (kind) {
          case MetricKind::Counter:
            os << ",\"counters\":{";
            break;
          case MetricKind::Gauge:
            os << ",\"gauges\":{";
            break;
          case MetricKind::Timer:
            os << ",\"timers\":{";
            break;
          case MetricKind::Histogram:
            os << ",\"histograms\":{";
            break;
        }
        bool first = true;
        for (const auto &[name, k] : names) {
            if (k != kind)
                continue;
            if (!first)
                os << ",";
            first = false;
            os << jsonString(name) << ":";
            switch (kind) {
              case MetricKind::Counter:
                os << reg.counterAt(name).value();
                break;
              case MetricKind::Gauge:
                os << jsonNumber(reg.gaugeAt(name).value());
                break;
              case MetricKind::Timer: {
                const Timer &t = reg.timerAt(name);
                const Histogram &d = t.distribution();
                os << "{\"count\":" << t.count()
                   << ",\"total_s\":" << jsonNumber(t.totalSeconds())
                   << ",\"mean_s\":" << jsonNumber(t.meanSeconds());
                if (d.count() > 0) {
                    os << ",\"p50_s\":"
                       << jsonNumber(histogramQuantile(d, 0.50))
                       << ",\"p95_s\":"
                       << jsonNumber(histogramQuantile(d, 0.95))
                       << ",\"p99_s\":"
                       << jsonNumber(histogramQuantile(d, 0.99));
                }
                os << "}";
                break;
              }
              case MetricKind::Histogram:
                appendHistogramJson(os, reg.histogramAt(name));
                break;
            }
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

void
writeMetricsJson(std::ostream &os, const MetricsRegistry &reg)
{
    os << metricsToJson(reg) << "\n";
}

namespace
{

/** Uniform per-metric summary row: count, value, mean, p95, min,
 *  max. */
struct MetricRow
{
    std::string kind;
    std::string count;
    std::string value;
    std::string mean;
    std::string p95;
    std::string min;
    std::string max;
};

MetricRow
summarize(const MetricsRegistry &reg, const std::string &name,
          MetricKind kind)
{
    MetricRow row;
    switch (kind) {
      case MetricKind::Counter:
        row.kind = "counter";
        row.value = std::to_string(reg.counterAt(name).value());
        break;
      case MetricKind::Gauge:
        row.kind = "gauge";
        row.value = jsonNumber(reg.gaugeAt(name).value());
        break;
      case MetricKind::Timer: {
        const Timer &t = reg.timerAt(name);
        row.kind = "timer";
        row.count = std::to_string(t.count());
        row.value = jsonNumber(t.totalSeconds());
        row.mean = jsonNumber(t.meanSeconds());
        if (t.distribution().count() > 0)
            row.p95 =
                jsonNumber(histogramQuantile(t.distribution(), 0.95));
        break;
      }
      case MetricKind::Histogram: {
        const Histogram &h = reg.histogramAt(name);
        row.kind = "histogram";
        row.count = std::to_string(h.count());
        row.value = jsonNumber(h.sum());
        row.mean = jsonNumber(h.mean());
        if (h.count() > 0) {
            row.p95 = jsonNumber(histogramQuantile(h, 0.95));
            row.min = jsonNumber(h.min());
            row.max = jsonNumber(h.max());
        }
        break;
      }
    }
    return row;
}

TextTable
metricsTable(const MetricsRegistry &reg)
{
    TextTable t({"metric", "kind", "count", "value", "mean", "p95",
                 "min", "max"});
    for (const auto &[name, kind] : reg.names()) {
        const MetricRow row = summarize(reg, name, kind);
        t.addRow({name, row.kind, row.count, row.value, row.mean,
                  row.p95, row.min, row.max});
    }
    return t;
}

} // namespace

void
writeMetricsCsv(std::ostream &os, const MetricsRegistry &reg)
{
    syncFaultGauge(reg);
    metricsTable(reg).printCsv(os);
}

void
printMetricsSummary(std::ostream &os, const MetricsRegistry &reg)
{
    syncFaultGauge(reg);
    metricsTable(reg).print(os);
}

namespace
{

/** One trace_event entry plus its sort keys. */
struct TraceEntry
{
    double tsUs = 0.0;
    int phaseOrder = 0; ///< M=0, E=1, B=2, i=3 at equal ts
    int depthKey = 0;   ///< B: depth asc; E: -depth (deepest first)
    std::string json;
};

} // namespace

std::string
fieldsJson(const std::vector<EventField> &fields)
{
    std::string out;
    for (const EventField &f : fields) {
        if (!out.empty())
            out += ",";
        out += jsonString(f.key) + ":";
        out += f.numeric ? jsonNumber(f.num) : jsonString(f.text);
    }
    return out;
}

std::string
traceEventJson(const std::vector<TraceProcess> &processes,
               const std::string &traceId)
{
    const std::string rootStamp =
        traceId.empty() ? "" : ",\"trace\":" + jsonString(traceId);
    std::vector<TraceEntry> entries;
    for (const TraceProcess &p : processes) {
        // chrome://tracing keys tracks on (pid, tid).
        const std::string pid = ",\"pid\":" + std::to_string(p.pid);
        const auto metadata = [&](const char *kind, std::uint32_t tid,
                                  const std::string &name) {
            entries.push_back(
                {0.0, 0, 0,
                 std::string("{\"ph\":\"M\",\"name\":\"") + kind +
                     "\"" + pid + ",\"tid\":" + std::to_string(tid) +
                     ",\"args\":{\"name\":" + jsonString(name) +
                     "}}"});
        };
        if (!p.name.empty())
            metadata("process_name", 0, p.name);
        for (const auto &[tid, label] : p.threads)
            metadata("thread_name", tid,
                     label.empty() ? "thread " + std::to_string(tid)
                                   : label);

        for (const SpanRecord &s : *p.records) {
            const std::string track = ",\"name\":" + jsonString(s.name) +
                                      pid + ",\"tid\":" +
                                      std::to_string(s.threadIndex);
            const std::string fields = fieldsJson(s.attrs);
            const std::string args =
                "\"parent\":" + std::to_string(s.parentId) +
                (fields.empty() ? "" : "," + fields) +
                (s.parentId == 0 ? rootStamp : "");
            const double beginUs = s.startSeconds * 1e6;
            if (s.instant) {
                entries.push_back({beginUs, 3, 0,
                                   "{\"ph\":\"i\",\"s\":\"t\"" + track +
                                       ",\"cat\":\"event\",\"ts\":" +
                                       jsonNumber(beginUs) +
                                       ",\"args\":{" + args + "}}"});
                continue;
            }
            const double endUs =
                (s.startSeconds + s.durationSeconds) * 1e6;
            const int depth = static_cast<int>(s.depth);
            entries.push_back(
                {beginUs, 2, depth,
                 "{\"ph\":\"B\"" + track + ",\"cat\":\"span\",\"ts\":" +
                     jsonNumber(beginUs) + ",\"args\":{\"id\":" +
                     std::to_string(s.id) + "," + args + "}}"});
            entries.push_back({endUs, 1, -depth,
                               "{\"ph\":\"E\"" + track +
                                   ",\"cat\":\"span\",\"ts\":" +
                                   jsonNumber(endUs) + "}"});
        }
    }

    // Duration events must nest: at a shared timestamp, close the
    // deepest span first and open the shallowest first, with all
    // closes ahead of any opens.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const TraceEntry &a, const TraceEntry &b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         if (a.phaseOrder != b.phaseOrder)
                             return a.phaseOrder < b.phaseOrder;
                         return a.depthKey < b.depthKey;
                     });

    std::string out = "{\"displayTimeUnit\":\"ms\",\"wall_start_unix_s\":";
    out += jsonNumber(wallClockStartUnixSeconds());
    if (!traceId.empty())
        out += ",\"trace_id\":" + jsonString(traceId);
    out += ",\"traceEvents\":[";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "\n" + entries[i].json;
    }
    out += "\n]}\n";
    return out;
}

std::string
spansToTraceJson(const SpanRecorder &rec)
{
    const std::vector<SpanRecord> records = rec.snapshot();
    return traceEventJson({{1, "", rec.threadLabels(), &records}});
}

namespace
{

/** Prometheus sample value (the format spells infinities +Inf). */
std::string
promNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    return jsonNumber(v);
}

/** irtherm_ prefix plus [a-zA-Z0-9_:] body, dots to underscores. */
std::string
promName(const std::string &name)
{
    std::string out = "irtherm_";
    out.reserve(out.size() + name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == ':';
        out += ok ? c : '_';
    }
    return out;
}

/**
 * "# HELP <exposed> <text>" line. Help text is synthesized from the
 * registry's dotted name — the registry stores no doc strings, but
 * scrapers (and promtool check metrics) want the line present. HELP
 * text escapes only backslash and newline per the exposition format;
 * dotted names contain neither.
 */
std::string
promHelp(const std::string &exposed, const std::string &dottedName,
         const char *kindText)
{
    return "# HELP " + exposed + " irtherm " + kindText + " '" +
           dottedName + "'\n";
}

} // namespace

std::string
metricsToPrometheus(const MetricsRegistry &reg)
{
    syncFaultGauge(reg);
    std::ostringstream os;
    for (const auto &[name, kind] : reg.names()) {
        const std::string base = promName(name);
        switch (kind) {
          case MetricKind::Counter:
            os << promHelp(base + "_total", name, "counter")
               << "# TYPE " << base << "_total counter\n"
               << base << "_total "
               << reg.counterAt(name).value() << "\n";
            break;
          case MetricKind::Gauge:
            os << promHelp(base, name, "gauge")
               << "# TYPE " << base << " gauge\n"
               << base << " "
               << promNumber(reg.gaugeAt(name).value()) << "\n";
            break;
          case MetricKind::Timer: {
            const Timer &t = reg.timerAt(name);
            const Histogram &d = t.distribution();
            const std::string s = base + "_seconds";
            os << promHelp(s, name, "timer")
               << "# TYPE " << s << " summary\n";
            for (const double q : {0.5, 0.95, 0.99}) {
                os << s << "{quantile=\"" << promNumber(q) << "\"} "
                   << promNumber(d.count() > 0
                                     ? histogramQuantile(d, q)
                                     : 0.0)
                   << "\n";
            }
            os << s << "_sum " << promNumber(t.totalSeconds()) << "\n"
               << s << "_count " << t.count() << "\n";
            break;
          }
          case MetricKind::Histogram: {
            const Histogram &h = reg.histogramAt(name);
            os << promHelp(base, name, "histogram")
               << "# TYPE " << base << " histogram\n";
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < Histogram::kBucketCount;
                 ++i) {
                const std::uint64_t c = h.bucketCount(i);
                if (c == 0)
                    continue;
                cum += c;
                os << base << "_bucket{le=\""
                   << promNumber(Histogram::bucketUpperBound(i))
                   << "\"} " << cum << "\n";
            }
            os << base << "_bucket{le=\"+Inf\"} " << h.count() << "\n"
               << base << "_sum " << promNumber(h.sum()) << "\n"
               << base << "_count " << h.count() << "\n";
            break;
          }
        }
    }
    return os.str();
}

} // namespace irtherm::obs
