/**
 * @file
 * Completed-job cache over a crash-safe JSONL journal, with live
 * aggregates.
 *
 * Every finished job (ok, failed, timed out, or hung) is recorded in
 * memory keyed by its scenario hash AND appended to
 * <dir>/journal.jsonl, one JSON object per line, flushed
 * immediately — so a sweep killed mid-flight loses at most the jobs
 * that were still running. The journal is the sweep directory's only
 * durable format. Every row also feeds a SweepAggregator
 * (sweep/aggregate.hh), which answers /aggregates and the reports
 * without rereading the journal.
 *
 * Resume (loadJournal) is one scan of the journal that rebuilds the
 * cache and the aggregates. A torn or corrupt line (a killed
 * writer's last flush, disk rot, or an injected journal.corrupt /
 * journal.truncate) is quarantined to <dir>/journal.quarantine as
 * `{"line": N, "reason": "...", "data": "<raw line>"}`, the journal
 * is rewritten atomically with only the good lines, and the job
 * simply re-runs. A final row that lost only its newline is kept and
 * terminated, so the next append cannot merge into it. add() keeps a
 * row whose journaled bytes it damaged out of the live aggregates, so
 * they always equal a scan of the journal.
 *
 * scanJournal() is the one loop that parses a journal; readJournal()
 * is its read-only form for tools that look at a sweep directory
 * from outside (sweep_report), possibly while a sweep is still
 * running.
 */

#ifndef IRTHERM_SWEEP_RESULT_STORE_HH
#define IRTHERM_SWEEP_RESULT_STORE_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
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

/** Receives one parsed journal row and its raw line. */
using JournalRowFn =
    std::function<void(JobResult &&row, const std::string &line)>;
/** Receives one unparsable journal line: its 1-based number, the
 *  parse failure (which names the file and line) and the raw text. */
using JournalBadLineFn =
    std::function<void(std::size_t lineno, const std::string &reason,
                       const std::string &line)>;

/**
 * Parse the journal file at @p path line by line, calling @p onRow
 * once per parsed row and @p onBad once per unparsable line, in file
 * order. Blank lines are skipped. Either callback may throw to stop
 * the scan. Returns false when the file cannot be opened.
 */
bool scanJournal(const std::string &path, const JournalRowFn &onRow,
                 const JournalBadLineFn &onBad);

/** Everything readJournal() recovered. */
struct JournalData
{
    /** Completed jobs, deduplicated by scenario hash (last wins),
     *  in hash order. */
    std::vector<JobResult> rows;
    /** `irtherm.sweep.aggregates.v1` over every parsed row. */
    std::string aggregatesJson;
    /** Unparsable lines skipped (not quarantined: read-only). */
    std::size_t skippedLines = 0;
};

/**
 * Read a sweep's results without touching its directory. @p path is
 * a sweep directory or a journal file. @p onBad, when set, also sees
 * each unparsable line, and may throw to stop the read. A missing
 * journal reads as empty; one that exists but cannot be opened
 * throws IoError.
 */
JournalData readJournal(const std::string &path,
                        const JournalBadLineFn &onBad = {});

/**
 * Thread-safe result cache over an output directory. Creates the
 * directory on construction; add() appends to the journal under a
 * lock and flushes before returning.
 */
class ResultStore
{
  public:
    explicit ResultStore(const std::string &dir);
    ~ResultStore();

    /**
     * Reload prior results with one scan of the journal (see file
     * comment). Returns the rows loaded. Unparsable lines are
     * quarantined rather than fatal; quarantined() reports how many
     * this call set aside.
     */
    std::size_t loadJournal();

    /** Journal lines quarantined by the last loadJournal(). */
    std::size_t quarantined() const;

    bool has(const std::string &hash) const;

    /** Result for a hash, or nullptr. The pointer stays valid until
     *  the store is destroyed (results are never removed). */
    const JobResult *findResult(const std::string &hash) const;

    /** Record a completed job and journal it durably. The row is
     *  serialized before the store's lock is taken. */
    void add(const JobResult &result);

    /** Nothing to do: every row is durable once add() returns. Kept
     *  for its one caller, perfbench's sweep replay
     *  (perfbench/src/workloads.cc). */
    void finalize() {}

    /** Current aggregates as `irtherm.sweep.aggregates.v1` JSON. */
    std::string aggregatesJson() const;

    std::string journalPath() const;
    std::string quarantinePath() const;

  private:
    /** {line number, reason, raw line} of each unparsable line. */
    using BadLines =
        std::vector<std::tuple<std::size_t, std::string, std::string>>;

    /** Append @p bad to the quarantine file, warn once per line, and
     *  count them. */
    void quarantine(const BadLines &bad);

    mutable std::mutex mu;
    std::string dir_;
    std::map<std::string, JobResult> byHash;
    std::ofstream journal;
    std::size_t quarantinedLines = 0;
    std::unique_ptr<SweepAggregator> agg;
    /** A journal.truncate fault left a line without its newline, so
     *  the next row's bytes merge into it and cannot parse. */
    bool tornLine = false;
};

} // namespace irtherm::sweep

#endif // IRTHERM_SWEEP_RESULT_STORE_HH
