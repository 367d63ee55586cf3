/**
 * @file
 * Exporters for the metrics registry and the span recorder.
 *
 * Formats:
 *  - JSON stats document (schema "irtherm.stats.v1"): one object
 *    with counters / gauges / timers / histograms sections keyed by
 *    metric name. Histograms list only their non-empty buckets.
 *  - CSV flat dump via the base/table machinery: one row per metric
 *    with name, kind, and summary values.
 *  - Chrome/Perfetto trace_event JSON: spans as matched B/E duration
 *    pairs and IRTHERM_EVENT instants as thread-scoped "i" entries,
 *    each on its recording thread's track, plus process/thread name
 *    metadata; loadable directly in chrome://tracing or Perfetto.
 *    One renderer serves the local recorder and the fleet merge.
 *  - Prometheus text exposition format for the /metrics endpoint.
 *  - Human summary: aligned TextTable for end-of-run CLI output.
 *
 * jsonEscape and jsonNumber are the JSON writer every irtherm
 * document, journal and wire body shares.
 */

#ifndef IRTHERM_OBS_EXPORT_HH
#define IRTHERM_OBS_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm::obs
{

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * The shortest decimal that parses back to exactly @p v
 * (std::to_chars), so every double survives a write/read round trip
 * bit for bit. NaN and infinities, which JSON cannot spell, become
 * null.
 */
std::string jsonNumber(double v);

/** @p fields as comma-separated JSON object members, `"key":value`
 *  (numbers via jsonNumber, text as escaped strings). */
std::string fieldsJson(const std::vector<EventField> &fields);

/** Serialize the registry as an "irtherm.stats.v1" JSON document. */
std::string metricsToJson(const MetricsRegistry &reg);

/** Write metricsToJson(reg) to @p os. */
void writeMetricsJson(std::ostream &os, const MetricsRegistry &reg);

/** One CSV row per metric: name, kind, count, value, mean, min, max. */
void writeMetricsCsv(std::ostream &os, const MetricsRegistry &reg);

/** One process's track group in a Chrome trace document. */
struct TraceProcess
{
    int pid = 1;
    std::string name; ///< process_name metadata; "" = none
    /** thread_name metadata per tid; "" reads "thread <tid>". */
    std::vector<std::pair<std::uint32_t, std::string>> threads;
    const std::vector<SpanRecord> *records = nullptr;
};

/**
 * Render @p processes as one Chrome/Perfetto trace_event JSON
 * document: name metadata, "B"/"E" pairs per span (args: id, parent,
 * attributes) and a thread-scoped "i" entry per instant (args:
 * parent, fields), ts in microseconds on the shared trace epoch,
 * sorted so duration events nest. A non-empty @p traceId is stamped
 * on the document ("trace_id") and into the args of every root
 * record ("trace"). The wall-clock instant of the epoch rides along
 * as a top-level "wall_start_unix_s" field (ignored by viewers, kept
 * for tools).
 */
std::string traceEventJson(const std::vector<TraceProcess> &processes,
                           const std::string &traceId = "");

/** traceEventJson of @p rec's buffered records: pid 1, one track
 *  per recorder thread label. */
std::string spansToTraceJson(const SpanRecorder &rec);

/**
 * Serialize the registry in Prometheus text exposition format:
 * counters as `<name>_total`, gauges verbatim, timers as summaries
 * with p50/p95/p99 quantile lines, histograms with cumulative
 * `_bucket{le=...}` lines. Metric names are sanitized (dots become
 * underscores) and prefixed `irtherm_`.
 */
std::string metricsToPrometheus(const MetricsRegistry &reg);

/** Aligned human-readable registry summary (CLI end-of-run). */
void printMetricsSummary(std::ostream &os, const MetricsRegistry &reg);

} // namespace irtherm::obs

#endif // IRTHERM_OBS_EXPORT_HH
