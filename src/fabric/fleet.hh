/**
 * @file
 * Fleet-wide observability state held by the coordinator: federated
 * worker metrics, the fleet health board, and the merged trace
 * store.
 *
 * Three pieces, all coordinator-side:
 *
 *  - **WorkerMetricsSnapshot**: the compact cumulative counter set a
 *    worker piggybacks on every /renew and /complete body. Totals,
 *    not deltas — last write wins, so a lost snapshot costs staleness
 *    rather than drift.
 *  - **FleetBoard**: per-worker heartbeat stamps, snapshot storage, a
 *    trailing jobs/s window, and slow/flapping-worker detection (a
 *    heartbeat older than the suspect threshold marks the worker
 *    suspect; a later heartbeat clears it and counts a flap). Renders
 *    the `/fleet` JSON document and the `irtherm_fleet_*` Prometheus
 *    lines appended to `/metrics`. Label cardinality is capped: past
 *    kMaxLabeledWorkers, workers fold into one `worker="_other"`
 *    series so a runaway fleet cannot blow up a scrape.
 *  - **FleetTraceStore**: span and instant batches shipped by
 *    workers on `POST /spans`, timestamps rebased onto the
 *    coordinator's trace epoch at ingest (each batch carries its
 *    sender's wall-clock epoch), bounded with drop counting, merged
 *    with the coordinator's own SpanRecorder into one
 *    Perfetto-loadable Chrome trace through obs::traceEventJson —
 *    pid 1 is the coordinator, each worker gets its own pid (= its
 *    own track group), root records carry the propagated trace id
 *    and the granting lease's span id in args.
 *
 * Everything here is product-side plumbing in the sense of
 * obs/metrics: it compiles under IRTHERM_ENABLE_METRICS=OFF (where
 * workers simply never record spans, so batches arrive empty and the
 * merge degrades to metadata-only output).
 *
 * Thread-safe; handlers on the HTTP listener thread and the
 * coordinator main loop share these objects.
 */

#ifndef IRTHERM_FABRIC_FLEET_HH
#define IRTHERM_FABRIC_FLEET_HH

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fabric/lease_table.hh"
#include "obs/span.hh"

namespace irtherm::sweep
{
class JsonValue;
}

namespace irtherm::fabric
{

/** Cumulative per-worker counters pushed on renew/complete. */
struct WorkerMetricsSnapshot
{
    std::uint64_t executed = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t hung = 0;
    std::uint64_t leases = 0;
    std::uint64_t renewals = 0;
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t impulseHits = 0;
    std::uint64_t warmStarts = 0;
    std::uint64_t spansShipped = 0;
    std::uint64_t spansDropped = 0;
    double cpuSeconds = 0.0;

    /** Compact JSON object (the "metrics" member of fabric bodies). */
    std::string toJson() const;

    /** Parse leniently: absent members stay zero; a non-object or
     *  mistyped member yields all-zeros rather than throwing. */
    static WorkerMetricsSnapshot fromJson(const sweep::JsonValue &doc);
};

/** One worker's row on the fleet health board. */
struct FleetWorkerRow
{
    std::string name;
    double heartbeatAgeSeconds = 0.0;
    std::uint64_t heartbeats = 0;
    bool suspect = false;
    std::uint64_t flaps = 0; ///< suspect -> healthy transitions
    double jobsPerSecond = 0.0;
    WorkerMetricsSnapshot metrics;
    LeaseTable::WorkerLeases leases;
};

/**
 * Coordinator-side federation of worker snapshots plus heartbeat
 * based suspect detection.
 */
class FleetBoard
{
  public:
    /** Cap on per-worker Prometheus label values (see file doc). */
    static constexpr std::size_t kMaxLabeledWorkers = 32;

    /** Stamp a heartbeat (any lease/renew/complete/spans contact). */
    void heartbeat(const std::string &worker);

    /** Store @p snap as @p worker's latest totals (also a heartbeat). */
    void ingest(const std::string &worker,
                const WorkerMetricsSnapshot &snap);

    /**
     * Mark every worker whose last heartbeat is older than
     * @p thresholdSeconds suspect. Returns the workers that just
     * transitioned (for the `worker.suspect` event); already-suspect
     * workers are not repeated.
     */
    std::vector<std::string> sweepSuspects(double thresholdSeconds);

    /** Every worker's row, leases merged in from @p leases. */
    std::vector<FleetWorkerRow>
    rows(const std::map<std::string, LeaseTable::WorkerLeases> &leases)
        const;

    /** The `/fleet` JSON document ("irtherm.fleet.v1"). */
    std::string fleetJson(
        const std::map<std::string, LeaseTable::WorkerLeases> &leases,
        const std::string &traceId, std::uint64_t spansStored,
        std::uint64_t spansDroppedHere) const;

    /** `irtherm_fleet_*` exposition lines (appended to /metrics). */
    std::string prometheusText(
        const std::map<std::string, LeaseTable::WorkerLeases> &leases)
        const;

    /** Workers currently marked suspect. */
    std::size_t suspectCount() const;

  private:
    struct Slot
    {
        double lastSeen = 0.0; ///< obs::monotonicSeconds() stamp
        std::uint64_t heartbeats = 0;
        bool suspect = false;
        std::uint64_t flaps = 0;
        WorkerMetricsSnapshot snap;
        /** Trailing (time, executed) stamps for the jobs/s window. */
        std::deque<std::pair<double, std::uint64_t>> window;
    };

    void stampLocked(Slot &slot);

    mutable std::mutex mu;
    std::map<std::string, Slot> slots;
};

/**
 * Bounded store of worker-shipped spans and instants plus the merge
 * into one Chrome trace document.
 */
class FleetTraceStore
{
  public:
    static constexpr std::size_t kDefaultCapacity = 262144;

    explicit FleetTraceStore(std::size_t capacity = kDefaultCapacity);

    /**
     * Ingest one `POST /spans` batch. @p body is the raw JSON; it is
     * parsed here (throws FatalError on malformed JSON, which the
     * HTTP handler maps to a 400). Returns the number of records
     * accepted. @p coordEpochUnixSeconds anchors the rebase: stored
     * start times are on the coordinator's trace epoch.
     */
    std::size_t ingestBatch(const std::string &body,
                            double coordEpochUnixSeconds,
                            std::string *workerOut = nullptr);

    std::uint64_t received() const; ///< spans ever accepted
    std::uint64_t dropped() const;  ///< spans shed at capacity
    /** Worker-side ring drops, as reported in batches (max). */
    std::uint64_t workerDropped() const;
    std::size_t size() const;

    /**
     * Merge the coordinator's own recorder (@p local, pid 1) and
     * every shipped worker record (one pid per worker) into a Chrome
     * trace_event document annotated with @p traceId.
     */
    std::string mergedTraceJson(const obs::SpanRecorder &local,
                                const std::string &traceId) const;

  private:
    mutable std::mutex mu;
    std::size_t cap;
    /** worker name -> its shipped records, ingest order. */
    std::map<std::string, std::vector<obs::SpanRecord>> spans;
    std::size_t stored = 0;
    std::uint64_t receivedCount = 0;
    std::uint64_t droppedCount = 0;
    std::uint64_t workerDroppedMax = 0;
};

} // namespace irtherm::fabric

#endif // IRTHERM_FABRIC_FLEET_HH
