/**
 * @file
 * Per-layer accounting for the traced run: the benchmark's own span
 * log, self-time attribution over bench spans merged with the
 * program's SpanRecorder spans, registry deltas read through the
 * program's JSON exporter, and a Chrome trace_event writer.
 *
 * A layer's self time is the time its spans cover minus the time
 * their child spans cover. Program spans that name no layer
 * (sweep.job, solve.tier, numeric.be.step, ...) fold their self time
 * into the nearest enclosing span that does.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** One completed span on the shared obs::monotonicSeconds() clock. */
struct Span
{
    std::string name;
    std::uint32_t thread = 0; ///< bench thread slot
    double start = 0.0;
    double end = 0.0;
    bool program = false; ///< copied from the program's recorder
};

/** Thread-safe in-memory log of bench spans. */
class SpanLog
{
  public:
    void add(Span s);
    /** Remove and return everything logged so far. */
    std::vector<Span> take();

  private:
    std::mutex mu;
    std::vector<Span> spans;
};

/**
 * Name the calling thread's bench slot: bench spans it opens carry
 * @p slot, and the program's spans on it are labelled so they map
 * back (see programSpans).
 */
void setBenchThread(std::uint32_t slot);

/** The label setBenchThread gives the program's recorder. */
std::string benchThreadLabel(std::uint32_t slot);

/** RAII bench span on the calling thread's slot; null log = off. */
class Timed
{
  public:
    Timed(SpanLog *log, const char *name);
    ~Timed();
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    SpanLog *log;
    Span span;
};

/**
 * Move the program recorder's buffered spans out (the recorder is
 * cleared), keeping those recorded on bench-labelled threads.
 * @p dropped is set to the recorder's overwrite count.
 */
std::vector<Span> programSpans(std::uint64_t *dropped = nullptr);

/** Self time and call counts per layer over one set of spans. */
struct LayerTotals
{
    std::map<std::string, double> selfSeconds;
    /** Outermost spans of each layer (a layer span nested in the
     *  same layer is not a new call). */
    std::map<std::string, std::size_t> calls;
    /** Duration of all root spans: the time the replay accounts for. */
    double rootSeconds = 0.0;
    /** Part of rootSeconds some layer claims. */
    double attributedSeconds = 0.0;
};

LayerTotals attribute(const std::vector<Span> &spans);

/** Counters and timers read from the program's registry. */
struct MetricSnapshot
{
    std::map<std::string, double> counters;
    std::map<std::string, double> timerCount;
    std::map<std::string, double> timerTotal;

    /** Read through obs::metricsToJson and the strict JSON reader. */
    static MetricSnapshot take();

    /** Values of this snapshot minus @p before. */
    MetricSnapshot since(const MetricSnapshot &before) const;

    double counter(const std::string &name) const;
    /** Sum of every counter whose name starts with @p prefix. */
    double counterPrefix(const std::string &prefix) const;
};

/** Write @p spans as a Chrome trace_event document to @p path. */
void writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
