/**
 * @file
 * Continuous sweep aggregates, maintained incrementally as each job
 * lands (the TimescaleDB continuous-aggregate idea, scaled down).
 *
 * The aggregator folds every JobResult into O(1) state the moment
 * ResultStore records it: counts by terminal state, temperature
 * histograms (fixed 2.5 °C bins), per-axis-value group-bys, a
 * streaming top-k of the slowest jobs, and log2 latency buckets that
 * reuse obs::Histogram's bucket geometry so p50/p95/p99 come from
 * the same histogramQuantile interpolation the metrics exporter
 * uses. `/aggregates` then answers in O(1) regardless of sweep size,
 * without rereading the journal; `sweep_report` folds the same state
 * in its one journal scan.
 *
 * The aggregator deliberately does NOT use obs::Histogram: those
 * instruments compile to no-ops under IRTHERM_ENABLE_METRICS=OFF,
 * and these counts are product data, not instrumentation.
 *
 * Not internally synchronized: callers (ResultStore) serialize
 * updates under their own lock and hand read snapshots out as JSON.
 */

#ifndef IRTHERM_SWEEP_AGGREGATE_HH
#define IRTHERM_SWEEP_AGGREGATE_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "sweep/result_store.hh"

namespace irtherm::sweep
{

/** Streaming aggregate state over completed sweep jobs. */
class SweepAggregator
{
  public:
    /** Distinct values tracked per axis before folding to "other". */
    static constexpr std::size_t kMaxAxisValues = 48;
    /** Slowest jobs retained. */
    static constexpr std::size_t kTopSlowest = 20;
    /** Temperature histogram bin width (°C / K). */
    static constexpr double kTempBinWidth = 2.5;

    /** Fold one completed job in (O(1) amortized). */
    void update(const JobResult &r);

    /** Jobs folded in so far. */
    std::uint64_t jobs() const { return total; }

    /** Serialize as an `irtherm.sweep.aggregates.v1` document. */
    std::string toJson() const;

    /** Reset to the empty state. */
    void clear();

  private:
    /** Sum/min/max accumulator over a double-valued field. */
    struct Stat
    {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;

        void add(double v);
    };

    /** Fixed-width temperature histogram: bin index -> count. */
    struct TempHistogram
    {
        Stat stat;
        std::map<std::int64_t, std::uint64_t> bins;

        void add(double celsius);
    };

    /** Group-by cell for one axis value. */
    struct AxisCell
    {
        std::uint64_t count = 0;
        std::uint64_t ok = 0;
        double peakSum = 0.0; ///< over ok jobs
        double peakMax = 0.0; ///< over ok jobs
        double wallSum = 0.0;
    };

    struct SlowJob
    {
        std::string name;
        std::string hash;
        double wallSeconds = 0.0;
        JobStatus status = JobStatus::Ok;
    };

    std::uint64_t total = 0;
    std::array<std::uint64_t, 4> byStatus{}; ///< indexed by JobStatus
    std::uint64_t warmStarted = 0;
    /** Jobs answered from the verified impulse-response cache. */
    std::uint64_t impulseCacheHits = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;

    Stat wall;
    /** Log2 wall-seconds buckets (obs::Histogram geometry). */
    std::array<std::uint64_t, obs::Histogram::kBucketCount>
        wallBuckets{};

    TempHistogram peak;     ///< peak_c over ok jobs
    TempHistogram gradient; ///< gradient_k over ok jobs

    /** axis key -> value -> cell. */
    std::map<std::string, std::map<std::string, AxisCell>> axes;
    /** Updates that hit a full axis (folded, not tracked). */
    std::uint64_t axisDropped = 0;

    /** Sorted descending by wallSeconds, ties by name ascending. */
    std::vector<SlowJob> slowest;
};

} // namespace irtherm::sweep

#endif // IRTHERM_SWEEP_AGGREGATE_HH
