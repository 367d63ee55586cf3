#include "sweep/compact.hh"

#include <filesystem>
#include <fstream>
#include <map>

#include "base/logging.hh"
#include "base/rng.hh"
#include "sweep/aggregate.hh"
#include "sweep/json.hh"
#include "sweep/scenario.hh"
#include "sweep/segment.hh"

namespace irtherm::sweep
{

namespace
{

std::string
journalFile(const std::string &dir)
{
    return (std::filesystem::path(dir) / "journal.jsonl").string();
}

std::string
checkpointFile(const std::string &dir)
{
    return (std::filesystem::path(dir) / "aggregates.ckpt").string();
}

/** Parse JSONL rows from @p offset to EOF into @p rows/@p agg. */
void
scanJsonl(const std::string &dir, std::uint64_t offset,
          std::map<std::string, JobResult> &rows, SweepAggregator *agg,
          JournalData &data)
{
    std::ifstream in(journalFile(dir), std::ios::binary);
    if (!in)
        return;
    if (offset > 0)
        in.seekg(static_cast<std::streamoff>(offset));
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        try {
            JobResult r = JobResult::fromJsonLine(
                line, journalFile(dir) + " line " +
                          std::to_string(lineno));
            if (agg != nullptr)
                agg->update(r);
            ++data.jsonlRows;
            rows[r.hash] = std::move(r);
        } catch (const FatalError &) {
            // Read-only access: note it and move on; the owning
            // sweep's resume path does the actual quarantining.
            ++data.skippedLines;
        }
    }
}

} // namespace

JournalData
readJournal(const std::string &dir, bool fullScan)
{
    JournalData data;
    std::map<std::string, JobResult> rows;
    SweepAggregator agg;

    JsonValue checkpoint;
    AggregateCoverage cov;
    bool fast = !fullScan && std::filesystem::exists(checkpointFile(dir));
    if (fast) {
        try {
            cov = ResultStore::readCheckpoint(dir, checkpoint);
        } catch (const FatalError &) {
            fast = false;
        }
    }

    if (fast) {
        // Fast path: covered segments carry the rows the checkpoint
        // aggregates describe; only the tail needs JSON parsing. A
        // single damaged artifact drops us to the full scan — this
        // reader must never return partial data silently.
        try {
            agg.restore(checkpoint.at("aggregates"),
                        checkpointFile(dir));
            for (const auto &[index, path] : scanSegments(dir).sealed) {
                if (index >= cov.sealedSegments)
                    continue; // rows re-read from the JSONL tail
                for (JobResult &r : readSegmentFile(path)) {
                    const std::string hash = r.hash;
                    rows[hash] = std::move(r);
                }
                ++data.segmentsRead;
            }
            scanJsonl(dir, cov.jsonlOffset, rows, &agg, data);
            data.fromCheckpoint = true;
        } catch (const FatalError &e) {
            warn("sweep: fast journal read failed (", e.what(),
                 "); falling back to full scan");
            fast = false;
            rows.clear();
            agg.clear();
            data = JournalData();
        }
    }
    if (!fast)
        scanJsonl(dir, 0, rows, &agg, data);

    data.rows.reserve(rows.size());
    for (auto &[hash, r] : rows) {
        (void)hash;
        data.rows.push_back(std::move(r));
    }
    data.aggregatesJson = agg.toJson();
    return data;
}

CompactStats
compactJournal(const std::string &dir, std::size_t segmentJobs)
{
    // ResultStore's resume path is exactly the compaction we want:
    // load everything not yet covered by a checkpoint, then finalize
    // seals the pending rows into segments and checkpoints the
    // aggregates.
    ResultStoreOptions options;
    options.segmentJobs = segmentJobs;
    ResultStore store(dir, options);
    store.loadJournal();
    store.finalize();

    CompactStats stats;
    stats.rows = store.size();
    stats.segments = store.sealedSegments();
    stats.quarantined = store.quarantined();
    std::error_code ec;
    const auto jsize =
        std::filesystem::file_size(store.journalPath(), ec);
    stats.journalBytes = ec ? 0 : static_cast<std::uint64_t>(jsize);
    for (const auto &[index, path] : scanSegments(dir).sealed) {
        (void)index;
        const auto ssize = std::filesystem::file_size(path, ec);
        stats.segmentBytes +=
            ec ? 0 : static_cast<std::uint64_t>(ssize);
    }
    return stats;
}

void
synthesizeJournal(const std::string &dir, std::size_t jobs,
                  std::uint64_t seed)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        ioError("journal_compact: cannot create '", dir,
                "': ", ec.message());
    std::ofstream out(journalFile(dir), std::ios::app);
    if (!out)
        ioError("journal_compact: cannot open '", journalFile(dir),
                "'");

    static const char *kBlocks[] = {"core0", "core1", "l2cache",
                                    "ncu"};
    static const char *kVdd[] = {"0.85", "0.95", "1.05"};
    static const char *kWorkload[] = {"idle", "dgemm", "mix",
                                      "powervirus"};

    Rng rng(seed);
    std::string buffer;
    buffer.reserve(1 << 20);
    for (std::size_t i = 0; i < jobs; ++i) {
        JobResult r;
        const std::size_t vdd = rng.index(3);
        const std::size_t load = rng.index(4);
        r.name = std::string("synth/vdd=") + kVdd[vdd] +
                 "/workload=" + kWorkload[load] + "/rep=" +
                 std::to_string(i);
        r.hash = hashHex(fnv1a64(r.name));
        r.axisValues.emplace_back("vdd", kVdd[vdd]);
        r.axisValues.emplace_back("workload", kWorkload[load]);
        const double roll = rng.uniform();
        if (roll < 0.02) {
            r.status = JobStatus::Failed;
            r.error = "cg: residual diverged";
            r.errorClass = ErrorClass::Numeric;
            r.attempts = 1 + rng.index(3);
        } else if (roll < 0.025) {
            r.status = JobStatus::Timeout;
            r.error = "job deadline exceeded";
            r.errorClass = ErrorClass::Timeout;
        } else {
            const double base = 45.0 + 12.0 * static_cast<double>(vdd) +
                                8.0 * static_cast<double>(load);
            r.peakCelsius = rng.gaussian(base, 3.0);
            r.gradientKelvin = rng.uniform(4.0, 18.0);
            r.minCelsius = r.peakCelsius - r.gradientKelvin;
            r.hottestUnit = kBlocks[rng.index(4)];
            r.heatPrimaryWatts = rng.uniform(20.0, 90.0);
            r.heatSecondaryWatts = rng.uniform(1.0, 6.0);
            r.cgIterations = 40 + rng.index(200);
            r.warmStarted = rng.uniform() < 0.6;
            for (const char *block : kBlocks) {
                r.blockCelsius.emplace_back(
                    block, r.minCelsius +
                               rng.uniform(0.0, r.gradientKelvin));
            }
        }
        r.wallSeconds = rng.uniform(0.01, 0.4) *
                        (r.warmStarted ? 0.4 : 1.0);
        r.resources.cpuSeconds = r.wallSeconds * rng.uniform(0.7, 1.0);
        r.resources.solverIterations = r.cgIterations;
        r.resources.retries = r.attempts - 1;
        buffer += r.toJsonLine();
        buffer += '\n';
        if (buffer.size() > (1 << 20)) {
            out << buffer;
            buffer.clear();
        }
    }
    out << buffer;
    out.flush();
    if (!out)
        ioError("journal_compact: short write to '", journalFile(dir),
                "'");
}

} // namespace irtherm::sweep
