/**
 * @file
 * Completed-job cache with a crash-safe JSONL journal, columnar
 * segment sealing, and continuous aggregates.
 *
 * Every finished job (ok, failed, timed out, or hung) is recorded in
 * memory keyed by its scenario hash AND appended to
 * <dir>/journal.jsonl, one JSON object per line, flushed
 * immediately — so a sweep killed mid-flight loses at most the jobs
 * that were still running. The JSONL file is the durability
 * baseline and debug sink; on top of it the store:
 *
 *  - buffers journaled rows and seals them in bounded chunks to
 *    <dir>/segments/NNNNNNNN.seg (columnar binary, CRC-checked; see
 *    sweep/segment.hh) so resume and reporting never re-parse
 *    millions of JSON lines;
 *  - feeds every row to a SweepAggregator (sweep/aggregate.hh) and
 *    checkpoints the aggregate state to <dir>/aggregates.ckpt after
 *    each seal, with a coverage watermark {jobs, sealed segments,
 *    JSONL byte offset}.
 *
 * Resume (loadJournal) restores in O(tail) rather than O(sweep):
 * checkpoint aggregates + sealed-segment rows + a replay of only the
 * JSONL tail past the checkpoint's byte offset. Crash consistency:
 *
 *  - a row reaches journal.jsonl before it can reach a segment or
 *    the checkpoint, so the JSONL tail always recovers anything a
 *    torn segment or missing checkpoint lost;
 *  - torn/corrupt segments are quarantined (renamed to `.torn`) and
 *    their rows re-read from the tail; segments sealed after the
 *    last checkpoint are set aside (`.orphan`) the same way so no
 *    row is ever aggregated twice;
 *  - a torn or corrupt JSONL line can only live in the tail (the
 *    checkpoint is written strictly after flushed lines); each one
 *    is quarantined to <dir>/journal.quarantine as
 *    `{"line": N, "reason": "...", "data": "<raw line>"}` and the
 *    job simply re-runs;
 *  - with no checkpoint at all (old journals, or a checkpoint
 *    invalidated by a damaged covered segment) the store falls back
 *    to the full JSONL scan, rebuilding aggregates from scratch and
 *    rewriting the journal atomically with only the good lines.
 *
 * Injected journal faults (journal.corrupt / journal.truncate /
 * journal.torn_segment) flip the store into "crashed" mode: no
 * further seals or checkpoints, emulating a writer that died — so
 * the resilience tests exercise exactly the recovery paths above.
 */

#ifndef IRTHERM_SWEEP_RESULT_STORE_HH
#define IRTHERM_SWEEP_RESULT_STORE_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/errors.hh"

namespace irtherm::sweep
{

class JsonValue;

/** Terminal state of one job. */
enum class JobStatus
{
    Ok,
    Failed,  ///< resolve/build/solve raised (e.g. diverging CG)
    Timeout, ///< exceeded the per-job deadline cooperatively
    Hung,    ///< unresponsive past the hard deadline; abandoned
};

const char *jobStatusName(JobStatus status);

/** Parse a status name ("ok", "failed", ...); ConfigError else. */
JobStatus parseJobStatus(const std::string &name);

/**
 * Per-job resource accounting (journal `resources` object). All
 * fields cover the job's *total* footprint across every attempt.
 */
struct JobResources
{
    /** CPU seconds charged to the job's worker/watchdog thread. */
    double cpuSeconds = 0.0;
    /** How far this job pushed up the process peak-RSS high-water
     *  mark (kilobytes); 0 for most jobs. */
    std::int64_t peakRssDeltaKb = 0;
    /** Solver iterations summed over attempts. */
    std::size_t solverIterations = 0;
    /** Extra executions beyond the first (attempts - 1). */
    std::size_t retries = 0;
    /** Fallback-tier escalations in the final attempt. */
    int fallbackEscalations = 0;
};

/** Everything a completed job reports. */
struct JobResult
{
    std::string hash; ///< 16-hex scenario hash (the cache key)
    std::string name; ///< display label
    JobStatus status = JobStatus::Ok;
    std::string error; ///< failure text; empty when ok
    /** Taxonomy class of the failure (None when ok). */
    ErrorClass errorClass = ErrorClass::None;
    /** Executions it took to reach this terminal state (>= 1). */
    std::size_t attempts = 1;
    /** Solver fallback escalations in the final attempt. */
    int fallbackTier = 0;
    double wallSeconds = 0.0;

    // Thermal summary (valid when status == Ok).
    double peakCelsius = 0.0;     ///< hottest silicon cell
    double minCelsius = 0.0;      ///< coolest silicon cell
    double gradientKelvin = 0.0;  ///< peak - min (the paper's dT)
    std::string hottestUnit;      ///< block holding the peak
    double heatPrimaryWatts = 0.0;   ///< through the cooling side
    double heatSecondaryWatts = 0.0; ///< through the package path
    std::size_t cgIterations = 0; ///< steady-solve iterations
    bool warmStarted = false;     ///< seeded from a cached neighbor
    /** Answered from the verified impulse-response cache (a GEMV
     *  instead of an iterative solve). */
    bool impulseCacheHit = false;
    /** Per-block steady silicon temperatures (celsius). */
    std::vector<std::pair<std::string, double>> blockCelsius;
    /** Resource accounting across all attempts. */
    JobResources resources;
    /** Sweep-axis assignments that produced this scenario (journal
     *  `axes` object, omitted when empty) — lets aggregates group by
     *  axis value from the journal alone. */
    std::vector<std::pair<std::string, std::string>> axisValues;
    /** Fabric provenance: id of the worker that executed the job
     *  (journal `worker` field, omitted when empty — single-process
     *  journals carry no fabric fields). */
    std::string worker;
    /** Lease renewals the executing worker performed while holding
     *  this job (journal `lease_renewals`, omitted when zero). */
    std::size_t leaseRenewals = 0;
    /** Leases holding this job that expired before it completed —
     *  each one re-queued it (journal `lease_expiries`, omitted when
     *  zero). Stamped by the coordinator at accept time. */
    std::size_t leaseExpiries = 0;
    /** Times the job was handed out again after its first lease
     *  (journal `re_leases`, omitted when zero). */
    std::size_t reLeases = 0;

    /** Serialize as one journal JSONL line (no trailing newline). */
    std::string toJsonLine() const;

    /**
     * Parse a journal line; throws (ConfigError) on malformed
     * entries. The resilience fields (`error_class`, `attempts`,
     * `fallback_tier`), the `resources` / `axes` objects, and the
     * fabric provenance fields (`worker`, `lease_renewals`) are
     * optional so journals written before they existed still load.
     */
    static JobResult fromJsonLine(const std::string &line,
                                  const std::string &context);

    /** Same contract over an already-parsed JSON object (the fabric
     *  /complete endpoint receives results embedded in a larger
     *  document). */
    static JobResult fromJson(const JsonValue &doc,
                              const std::string &context);
};

class SweepAggregator;

/** Tuning knobs for ResultStore's analytics layer. */
struct ResultStoreOptions
{
    /** Rows buffered before sealing a columnar segment (and writing
     *  an aggregate checkpoint). 0 disables segments entirely —
     *  JSONL-only operation, exactly the pre-analytics behavior. */
    std::size_t segmentJobs = 2048;
};

/**
 * Thread-safe result cache over an output directory. Creates the
 * directory on construction; add() appends to the journal under a
 * lock and flushes before returning.
 */
class ResultStore
{
  public:
    explicit ResultStore(const std::string &dir,
                         ResultStoreOptions options = {});
    ~ResultStore();

    /**
     * Reload prior results: aggregate checkpoint + sealed segments +
     * JSONL tail (see file comment). Returns entries loaded.
     * Corrupt or truncated artifacts are quarantined rather than
     * fatal; quarantined() / quarantinedSegments() report how many
     * this call set aside.
     */
    std::size_t loadJournal();

    /** JSONL lines quarantined by the last loadJournal(). */
    std::size_t quarantined() const;

    /** Torn/corrupt segments quarantined by the last loadJournal(). */
    std::size_t quarantinedSegments() const;

    bool has(const std::string &hash) const;

    /** Result for a hash, or nullptr. The pointer stays valid until
     *  the store is destroyed (results are never removed). */
    const JobResult *findResult(const std::string &hash) const;

    /** Record a completed job and journal it durably. */
    void add(const JobResult &result);

    /**
     * Seal any buffered rows into a final (possibly short) segment
     * and write the aggregate checkpoint. Call when the sweep
     * finishes; idempotent; a no-op after an injected journal fault
     * (crashed mode) so recovery tests see the artifacts a dead
     * writer would have left.
     */
    void finalize();

    std::size_t size() const;

    /** Segments sealed so far (loaded + written). */
    std::size_t sealedSegments() const;

    /** Current aggregates as `irtherm.sweep.aggregates.v1` JSON. */
    std::string aggregatesJson() const;

    const std::string &directory() const { return dir_; }
    std::string journalPath() const;
    std::string quarantinePath() const;
    std::string checkpointPath() const;

  private:
    std::size_t loadJournalFullScan();
    void sealPending();
    void writeCheckpoint();

    mutable std::mutex mu;
    std::string dir_;
    ResultStoreOptions options;
    std::map<std::string, JobResult> byHash;
    std::ofstream journal;
    std::size_t quarantinedLines = 0;
    std::size_t quarantinedSegs = 0;

    std::unique_ptr<SweepAggregator> agg;
    /** Journaled rows not yet sealed into a segment. */
    std::vector<JobResult> pending;
    /** Index the next sealed segment will take. */
    std::uint64_t nextSegmentIndex = 0;
    /** Byte offset in journal.jsonl up to which rows are aggregated
     *  (the next checkpoint's coverage watermark). */
    std::uint64_t journalBytes = 0;
    /** An injected journal fault fired: emulate a dead writer (no
     *  more seals or checkpoints). */
    bool crashed = false;
};

} // namespace irtherm::sweep

#endif // IRTHERM_SWEEP_RESULT_STORE_HH
