/**
 * @file
 * Hierarchical causal spans and point events on one timeline:
 * RAII-scoped timed regions with a thread-local parent stack,
 * per-span key/value attributes, zero-duration instants, and a
 * bounded recorder exporting Chrome/Perfetto trace_event JSON.
 *
 * Where the MetricsRegistry answers "how many / how long in total",
 * spans answer *why is this slow*: each ScopedSpan nests under
 * whatever span is open on the same thread, so a sweep job's
 * timeline reads sweep.job -> core.steady_solve -> solve.tier ->
 * numeric.cg with the fallback escalations visible as siblings.
 * Instants answer *what state changes happened*: IRTHERM_EVENT
 * records one (DTM engage/disengage, sensor polls, steady init) on
 * the calling thread, parented under its innermost open span, so a
 * dtm.engage lands inside the dtm.decision that caused it.
 *
 * Recording is off by default (SpanRecorder::global().setEnabled).
 * A disabled ScopedSpan or IRTHERM_EVENT costs one relaxed atomic
 * load; under IRTHERM_METRICS_ENABLED=0 the ScopedSpan body and the
 * event macro compile to nothing, so instrumented hot paths
 * reference no telemetry symbols at all.
 *
 * Spans and instants share one bounded ring (oldest overwritten,
 * dropped count maintained) and one clock. Live spans are
 * additionally tracked per thread so the status endpoint can report
 * each worker's current span path
 * ("sweep.job/core.steady_solve/numeric.cg") while the job is still
 * running.
 */

#ifndef IRTHERM_OBS_SPAN_HH
#define IRTHERM_OBS_SPAN_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh" // kMetricsEnabled
#include "obs/trace_clock.hh"

namespace irtherm::obs
{

/** One span attribute or event field: either numeric or text. */
struct EventField
{
    EventField(std::string k, double v)
        : key(std::move(k)), num(v), numeric(true)
    {}
    EventField(std::string k, int v)
        : EventField(std::move(k), static_cast<double>(v))
    {}
    EventField(std::string k, std::size_t v)
        : EventField(std::move(k), static_cast<double>(v))
    {}
    EventField(std::string k, std::string v)
        : key(std::move(k)), text(std::move(v)), numeric(false)
    {}
    EventField(std::string k, const char *v)
        : EventField(std::move(k), std::string(v))
    {}

    std::string key;
    std::string text;
    double num = 0.0;
    bool numeric = true;
};

/** One ring record: a completed span, or an instant (an
 *  IRTHERM_EVENT, zero duration, id 0). */
struct SpanRecord
{
    std::uint64_t id = 0;       ///< process-unique, starts at 1
    std::uint64_t parentId = 0; ///< 0 = root (no enclosing span)
    std::uint32_t threadIndex = 0; ///< recorder-assigned dense id
    std::uint32_t depth = 0;       ///< nesting depth at open (root 0)
    std::string name;              ///< e.g. "core.steady_solve"
    double startSeconds = 0.0;     ///< from traceEpoch()
    double durationSeconds = 0.0;
    std::vector<EventField> attrs; ///< span attributes / event fields
    bool instant = false;
};

/**
 * Bounded, thread-safe buffer of completed spans plus a registry of
 * live (still-open) per-thread span stacks.
 */
class SpanRecorder
{
  public:
    static constexpr std::size_t kDefaultCapacity = 65536;

    explicit SpanRecorder(std::size_t capacity = kDefaultCapacity);

    /** Start / stop recording (cheap relaxed-atomic check). */
    void setEnabled(bool enabled);

    bool
    enabled() const
    {
        return kMetricsEnabled && on.load(std::memory_order_relaxed);
    }

    /** Replace the capacity; buffered spans are discarded. */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const;

    /** Append one record. No-op while disabled. */
    void record(SpanRecord rec);

    /**
     * Record an instant named @p name on the global recorder: the
     * calling thread, now, parented under the thread's innermost
     * open span. No-op while disabled. Prefer IRTHERM_EVENT, which
     * skips building @p fields when recording is off.
     */
    static void recordInstant(std::string name,
                              std::vector<EventField> fields);

    /** Records currently buffered (<= capacity). */
    std::size_t size() const;

    /** Total records ever recorded (including since-overwritten). */
    std::uint64_t recorded() const;

    /** Records overwritten because the ring was full. */
    std::uint64_t dropped() const;

    /** Copy of the buffered records, oldest-recorded first. */
    std::vector<SpanRecord> snapshot() const;

    /**
     * The records sealed since recorded() stood at @p watermark,
     * oldest first. Under the same lock, @p watermark advances to
     * recorded(), so successive calls return each record exactly
     * once; @p lost (if non-null) receives how many of the new
     * records the ring overwrote before this read. A watermark past
     * recorded() (the recorder was cleared) restarts from zero.
     */
    std::vector<SpanRecord> snapshotSince(std::uint64_t &watermark,
                                          std::uint64_t *lost) const;

    /** Drop buffered records and zero the counters. Thread labels
     *  and live stacks are untouched (they belong to their threads). */
    void clear();

    /** One thread's currently-open span chain, root first. */
    struct LivePath
    {
        std::uint32_t threadIndex = 0;
        std::string label;       ///< setThreadLabel(); may be empty
        std::string path;        ///< "a/b/c"; empty = idle thread
        double openSeconds = 0.0;///< start of the innermost span
    };

    /** Live span path of every registered thread (idle ones too). */
    std::vector<LivePath> livePaths() const;

    /** Label -> dense-index map of every thread ever seen. */
    std::vector<std::pair<std::uint32_t, std::string>>
    threadLabels() const;

    /**
     * Name the calling thread in live paths and the trace_event
     * export ("worker3", "main"). Safe to call repeatedly.
     */
    static void setThreadLabel(const std::string &label);

    /**
     * Id of the calling thread's innermost open span, or 0 when no
     * span is open (or recording is disabled / compiled out). Used
     * by correlation-id consumers such as the JSON log sink.
     */
    static std::uint64_t currentSpanId();

    /** The process-wide recorder used by every ScopedSpan. */
    static SpanRecorder &global();

  private:
    friend class ScopedSpan;
    struct ThreadSlot;

    /** The calling thread's slot on the global recorder,
     *  registering it on first use. */
    static ThreadSlot &threadSlot();

    mutable std::mutex mu;
    std::vector<SpanRecord> ring;
    std::size_t cap;
    std::size_t head = 0;
    std::size_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t droppedCount = 0;
    std::atomic<bool> on{false};

    mutable std::mutex threadsMu;
    std::vector<ThreadSlot *> threads; ///< live registered threads
    /** Labels survive thread exit (needed at export time). */
    std::vector<std::pair<std::uint32_t, std::string>> labels;
    std::uint32_t nextThreadIndex = 0;
};

#if IRTHERM_METRICS_ENABLED

/**
 * RAII span: opens on construction (nesting under the thread's
 * current span), records on destruction. Attributes added via
 * attr() chain fluently:
 *
 *   obs::ScopedSpan span("core.steady_solve");
 *   span.attr("nodes", n);
 *   ...
 *   span.attr("iterations", res.iterations);
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach a key/value attribute (numeric or text). */
    template <typename V>
    ScopedSpan &
    attr(std::string key, V value)
    {
        if (active)
            rec.attrs.emplace_back(std::move(key), std::move(value));
        return *this;
    }

  private:
    bool active = false; ///< recorder was enabled at open
    SpanRecord rec;
};

#else // IRTHERM_METRICS_ENABLED == 0: inert, references nothing

class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string &) {}
    explicit ScopedSpan(const char *) {}

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    template <typename V>
    ScopedSpan &
    attr(const std::string &, V &&)
    {
        return *this;
    }
};

#endif // IRTHERM_METRICS_ENABLED

} // namespace irtherm::obs

#if IRTHERM_METRICS_ENABLED
/**
 * Record an instant on the global recorder iff recording is enabled.
 * Usage: IRTHERM_EVENT("dtm.engage", {"sim_time_s", now},
 *                      {"temp_k", temp});
 */
#define IRTHERM_EVENT(name, ...)                                        \
    do {                                                                \
        if (::irtherm::obs::SpanRecorder::global().enabled())           \
            ::irtherm::obs::SpanRecorder::recordInstant((name),         \
                                                        {__VA_ARGS__}); \
    } while (0)
#else
#define IRTHERM_EVENT(name, ...)                                        \
    do {                                                                \
    } while (0)
#endif

#endif // IRTHERM_OBS_SPAN_HH
