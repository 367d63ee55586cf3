#include "sweep/result_store.hh"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <vector>

#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "sweep/aggregate.hh"
#include "sweep/json.hh"
#include "sweep/segment.hh"

namespace irtherm::sweep
{

namespace
{

constexpr const char *kCheckpointSchema = "irtherm.sweep.aggcheckpoint.v1";

std::string
pathIn(const std::string &dir, const char *name)
{
    return (std::filesystem::path(dir) / name).string();
}

std::uint64_t
fileSizeOrZero(const std::string &path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

/** Rename a damaged/superseded segment out of the scan's way. */
void
setAsideSegment(const std::string &path, const char *suffix)
{
    std::error_code ec;
    std::filesystem::rename(path, path + suffix, ec);
    if (ec) {
        // Last resort so the next scan doesn't trip over it again.
        std::filesystem::remove(path, ec);
    }
}

/** Replace @p path with @p content through a temp file and a rename,
 *  so a reader sees the old file or the new one, never a torn one. */
void
replaceFile(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (!f)
            ioError("sweep: cannot write '", tmp, "'");
        f << content;
        f.flush();
        if (!f)
            ioError("sweep: short write to '", tmp, "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        ioError("sweep: cannot replace '", path, "': ", ec.message());
}

/** Overwrite scattered bytes of @p path in place (ckpt.corrupt). */
void
scrambleFile(const std::string &path)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (!f)
        return;
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(f.tellg());
    for (std::uint64_t pos = 1; pos < size; pos += 7) {
        f.seekp(static_cast<std::streamoff>(pos));
        f.put('#');
    }
    f.flush();
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::Timeout:
        return "timeout";
      case JobStatus::Hung:
        return "hung";
    }
    return "?";
}

JobStatus
parseJobStatus(const std::string &name)
{
    if (name == "ok")
        return JobStatus::Ok;
    if (name == "failed")
        return JobStatus::Failed;
    if (name == "timeout")
        return JobStatus::Timeout;
    if (name == "hung")
        return JobStatus::Hung;
    configError("sweep journal: unknown job status '", name, "'");
}

std::string
JobResult::toJsonLine() const
{
    // Every piece is appended in place: a chain of `+` would build a
    // temporary string per field, which cost more than the numbers.
    std::string out;
    out.reserve(1024);
    const auto text = [&out](const char *key, const std::string &value) {
        out += key;
        out += '"';
        out += obs::jsonEscape(value);
        out += '"';
    };
    const auto number = [&out](const char *key, double value) {
        out += key;
        out += obs::jsonNumber(value);
    };
    const auto count = [&out](const char *key, auto value) {
        out += key;
        out += std::to_string(value);
    };
    text("{\"hash\":", hash);
    text(",\"name\":", name);
    out += ",\"status\":\"";
    out += jobStatusName(status);
    out += '"';
    text(",\"error\":", error);
    out += ",\"error_class\":\"";
    out += errorClassName(errorClass);
    out += '"';
    count(",\"attempts\":", attempts);
    count(",\"fallback_tier\":", fallbackTier);
    number(",\"wall_s\":", wallSeconds);
    number(",\"peak_c\":", peakCelsius);
    number(",\"min_c\":", minCelsius);
    number(",\"gradient_k\":", gradientKelvin);
    text(",\"hottest\":", hottestUnit);
    number(",\"heat_primary_w\":", heatPrimaryWatts);
    number(",\"heat_secondary_w\":", heatSecondaryWatts);
    count(",\"cg_iterations\":", cgIterations);
    out += ",\"warm_start\":";
    out += warmStarted ? "true" : "false";
    out += ",\"impulse_hit\":";
    out += impulseCacheHit ? "true" : "false";
    number(",\"resources\":{\"cpu_s\":", resources.cpuSeconds);
    count(",\"rss_delta_kb\":", resources.peakRssDeltaKb);
    count(",\"solver_iterations\":", resources.solverIterations);
    count(",\"retries\":", resources.retries);
    count(",\"fallbacks\":", resources.fallbackEscalations);
    out += '}';
    if (!axisValues.empty()) {
        out += ",\"axes\":{";
        bool first = true;
        for (const auto &[key, value] : axisValues) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += obs::jsonEscape(key);
            text("\":", value);
        }
        out += '}';
    }
    // Fabric provenance, omitted at its defaults so single-process
    // journals carry no fabric fields.
    if (!worker.empty())
        text(",\"worker\":", worker);
    if (leaseRenewals != 0)
        count(",\"lease_renewals\":", leaseRenewals);
    if (leaseExpiries != 0)
        count(",\"lease_expiries\":", leaseExpiries);
    if (reLeases != 0)
        count(",\"re_leases\":", reLeases);
    out += ",\"blocks\":{";
    bool first = true;
    for (const auto &[block, celsius] : blockCelsius) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += obs::jsonEscape(block);
        number("\":", celsius);
    }
    out += "}}";
    return out;
}

JobResult
JobResult::fromJsonLine(const std::string &line,
                        const std::string &context)
{
    return fromJson(parseJson(line, context), context);
}

JobResult
JobResult::fromJson(const JsonValue &doc, const std::string &context)
{
    if (!doc.isObject())
        configError(context, ": journal entry must be an object");

    auto str = [&](const char *key) -> std::string {
        const JsonValue &v = doc.at(key);
        if (!v.isString())
            configError(context, ": '", key, "' must be a string");
        return v.text;
    };
    auto num = [&](const char *key) -> double {
        const JsonValue &v = doc.at(key);
        if (!v.isNumber())
            configError(context, ": '", key, "' must be a number");
        return v.number;
    };

    JobResult r;
    r.hash = str("hash");
    r.name = str("name");
    r.status = parseJobStatus(str("status"));
    r.error = str("error");
    // Resilience fields: absent in journals written by older builds.
    if (const JsonValue *v = doc.find("error_class")) {
        if (!v->isString())
            configError(context, ": 'error_class' must be a string");
        r.errorClass = parseErrorClass(v->text);
    }
    if (const JsonValue *v = doc.find("attempts")) {
        if (!v->isNumber())
            configError(context, ": 'attempts' must be a number");
        r.attempts = static_cast<std::size_t>(v->number);
    }
    if (const JsonValue *v = doc.find("fallback_tier")) {
        if (!v->isNumber())
            configError(context, ": 'fallback_tier' must be a number");
        r.fallbackTier = static_cast<int>(v->number);
    }
    r.wallSeconds = num("wall_s");
    r.peakCelsius = num("peak_c");
    r.minCelsius = num("min_c");
    r.gradientKelvin = num("gradient_k");
    r.hottestUnit = str("hottest");
    r.heatPrimaryWatts = num("heat_primary_w");
    r.heatSecondaryWatts = num("heat_secondary_w");
    r.cgIterations = static_cast<std::size_t>(num("cg_iterations"));
    const JsonValue &warm = doc.at("warm_start");
    if (!warm.isBool())
        configError(context, ": 'warm_start' must be a boolean");
    r.warmStarted = warm.boolean;
    // Absent in journals written before the superposition cache.
    if (const JsonValue *v = doc.find("impulse_hit")) {
        if (!v->isBool())
            configError(context, ": 'impulse_hit' must be a boolean");
        r.impulseCacheHit = v->boolean;
    }
    // The resources object arrived with the telemetry layer; older
    // journals simply leave the defaults (all zero).
    if (const JsonValue *res = doc.find("resources")) {
        if (!res->isObject())
            configError(context, ": 'resources' must be an object");
        auto resNum = [&](const char *key) -> double {
            const JsonValue *v = res->find(key);
            if (v == nullptr)
                return 0.0;
            if (!v->isNumber())
                configError(context, ": 'resources.", key,
                            "' must be a number");
            return v->number;
        };
        r.resources.cpuSeconds = resNum("cpu_s");
        r.resources.peakRssDeltaKb =
            static_cast<std::int64_t>(resNum("rss_delta_kb"));
        r.resources.solverIterations =
            static_cast<std::size_t>(resNum("solver_iterations"));
        r.resources.retries =
            static_cast<std::size_t>(resNum("retries"));
        r.resources.fallbackEscalations =
            static_cast<int>(resNum("fallbacks"));
    }
    // Fabric provenance: absent in pre-fabric journals and in
    // single-process sweeps (the serializer omits the defaults).
    if (const JsonValue *v = doc.find("worker")) {
        if (!v->isString())
            configError(context, ": 'worker' must be a string");
        r.worker = v->text;
    }
    if (const JsonValue *v = doc.find("lease_renewals")) {
        if (!v->isNumber())
            configError(context,
                        ": 'lease_renewals' must be a number");
        r.leaseRenewals = static_cast<std::size_t>(v->number);
    }
    if (const JsonValue *v = doc.find("lease_expiries")) {
        if (!v->isNumber())
            configError(context,
                        ": 'lease_expiries' must be a number");
        r.leaseExpiries = static_cast<std::size_t>(v->number);
    }
    if (const JsonValue *v = doc.find("re_leases")) {
        if (!v->isNumber())
            configError(context, ": 're_leases' must be a number");
        r.reLeases = static_cast<std::size_t>(v->number);
    }
    // Axis assignments arrived with the analytics layer; optional.
    if (const JsonValue *axes = doc.find("axes")) {
        if (!axes->isObject())
            configError(context, ": 'axes' must be an object");
        for (const auto &[key, value] : axes->members) {
            if (!value.isString())
                configError(context,
                            ": axis value must be a string");
            r.axisValues.emplace_back(key, value.text);
        }
    }
    const JsonValue &blocks = doc.at("blocks");
    if (!blocks.isObject())
        configError(context, ": 'blocks' must be an object");
    for (const auto &[block, celsius] : blocks.members) {
        if (!celsius.isNumber())
            configError(context,
                        ": block temperature must be a number");
        r.blockCelsius.emplace_back(block, celsius.number);
    }
    return r;
}

ResultStore::ResultStore(const std::string &dir,
                         ResultStoreOptions options)
    : dir_(dir), options(options),
      agg(std::make_unique<SweepAggregator>())
{
    if (dir_.empty())
        configError("sweep: output directory must not be empty");
    if (options.segmentJobs == 0)
        configError("sweep: segment size must be > 0");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        ioError("sweep: cannot create output directory '", dir_,
                "': ", ec.message());
    journalBytes = fileSizeOrZero(journalPath());
    journal.open(journalPath(), std::ios::app);
    if (!journal)
        ioError("sweep: cannot open journal '", journalPath(), "'");
}

ResultStore::~ResultStore() = default;

std::string
ResultStore::journalPath() const
{
    return pathIn(dir_, "journal.jsonl");
}

std::string
ResultStore::quarantinePath() const
{
    return pathIn(dir_, "journal.quarantine");
}

std::string
ResultStore::checkpointPath() const
{
    return pathIn(dir_, "aggregates.ckpt");
}

AggregateCoverage
ResultStore::readCheckpoint(const std::string &dir, JsonValue &checkpoint)
{
    const std::string path = pathIn(dir, "aggregates.ckpt");
    checkpoint = loadJsonFile(path);
    const JsonValue &schema = checkpoint.at("schema");
    if (!schema.isString() || schema.text != kCheckpointSchema)
        configError(path, ": unsupported checkpoint schema");
    const JsonValue &c = checkpoint.at("coverage");
    auto covNum = [&](const char *key) -> std::uint64_t {
        const JsonValue &v = c.at(key);
        if (!v.isNumber() || v.number < 0)
            configError(path, ": bad coverage '", key, "'");
        return static_cast<std::uint64_t>(v.number);
    };
    AggregateCoverage cov;
    cov.jobs = covNum("jobs");
    cov.sealedSegments = covNum("sealed_segments");
    cov.jsonlOffset = covNum("jsonl_offset");
    if (cov.jsonlOffset > fileSizeOrZero(pathIn(dir, "journal.jsonl")))
        configError(path, ": covers more journal than exists");
    return cov;
}

std::size_t
ResultStore::loadJournal()
{
    std::lock_guard<std::mutex> lock(mu);
    quarantinedLines = 0;
    quarantinedSegs = 0;
    agg->clear();
    pending.clear();
    crashed = false;

    // Abandoned `.tmp` files are seals the old writer never finished;
    // their rows are in the JSONL journal, so just sweep them away.
    SegmentScan scan = scanSegments(dir_);
    for (const std::string &leftover : scan.leftovers) {
        warn("sweep: removing abandoned segment temp '", leftover,
             "'");
        std::error_code ec;
        std::filesystem::remove(leftover, ec);
    }

    // The aggregate checkpoint tells us how much of the journal the
    // restored aggregates already cover. Unreadable checkpoint ->
    // full scan (exactly the legacy path).
    AggregateCoverage cov;
    bool haveCheckpoint = false;
    JsonValue checkpoint;
    if (std::filesystem::exists(checkpointPath())) {
        // Injected checkpoint rot: scramble the file on disk before
        // the parse below, so the genuine unreadable-checkpoint
        // recovery (discard + full JSONL scan) is what runs.
        if (FaultInjector::global().shouldFire(
                faultpoint::CkptCorrupt, dir_))
            scrambleFile(checkpointPath());
        try {
            cov = readCheckpoint(dir_, checkpoint);
            haveCheckpoint = true;
        } catch (const FatalError &e) {
            warn("sweep: discarding unreadable aggregate checkpoint (",
                 e.what(), ")");
        }
    }

    if (haveCheckpoint) {
        // Load covered segments into the cache. Their rows are
        // already inside the checkpointed aggregates, so they are
        // NOT re-aggregated. A damaged covered segment invalidates
        // the checkpoint (its rows live before the JSONL watermark):
        // quarantine it and fall back to the full scan.
        bool coveredLoss = false;
        for (const auto &[index, path] : scan.sealed) {
            // A segment sealed after the checkpoint (a crash between
            // the seal and the checkpoint write) holds rows the JSONL
            // tail replays: set it aside so nothing counts twice. A
            // tear there is the injected journal.torn_segment case.
            const bool covered = index < cov.sealedSegments;
            try {
                std::vector<JobResult> rows = readSegmentFile(path);
                if (!covered) {
                    warn("sweep: setting aside uncheckpointed segment '",
                         path, "' (rows recovered from journal tail)");
                    setAsideSegment(path, ".orphan");
                    continue;
                }
                for (JobResult &r : rows) {
                    const std::string hash = r.hash;
                    byHash[hash] = std::move(r);
                }
            } catch (const FatalError &e) {
                warn("sweep: quarantining torn segment '", path, "' (",
                     e.what(), ")");
                setAsideSegment(path, ".torn");
                ++quarantinedSegs;
                coveredLoss = coveredLoss || covered;
            }
        }
        if (coveredLoss) {
            haveCheckpoint = false;
        } else {
            agg->restore(checkpoint.at("aggregates"),
                         checkpointPath());
        }
    }

    if (!haveCheckpoint) {
        // Full-scan fallback: the JSONL journal holds every row, so
        // rebuild everything from it and start the analytics state
        // fresh. Any segments on disk only duplicate journal rows —
        // set them aside so each live row belongs to exactly one
        // future segment.
        std::error_code ec;
        std::filesystem::remove(checkpointPath(), ec);
        for (const auto &[index, path] : scan.sealed) {
            (void)index;
            setAsideSegment(path, ".orphan");
        }
        nextSegmentIndex = 0;
        return loadJournalFullScan();
    }

    nextSegmentIndex = cov.sealedSegments;

    // Replay the JSONL tail: every row journaled after the
    // checkpoint. These go back into the pending buffer so the next
    // seal folds them into a segment (streaming merge on resume).
    std::string tail;
    {
        std::ifstream in(journalPath(), std::ios::binary);
        if (in) {
            in.seekg(static_cast<std::streamoff>(cov.jsonlOffset));
            tail.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
        }
    }
    BadLines bad;
    std::size_t pos = 0;
    std::size_t tailLine = 0;
    while (pos < tail.size()) {
        const std::size_t nl = tail.find('\n', pos);
        const std::size_t end = nl == std::string::npos ? tail.size() : nl;
        const std::string line = tail.substr(pos, end - pos);
        pos = end + 1;
        ++tailLine;
        if (line.empty())
            continue;
        // A torn flush from the dead writer is quarantined, but its
        // bytes stay: a rewrite would invalidate the checkpoint
        // watermark. The next checkpoint's offset moves past it.
        replay(line, tailLine, "tail line", bad);
    }
    const bool endsWithNewline = tail.empty() || tail.back() == '\n';
    journalBytes = cov.jsonlOffset + tail.size();
    if (!endsWithNewline) {
        // Terminate a torn final line so our appends don't merge
        // into it and become unparsable themselves.
        journal << "\n";
        journal.flush();
        ++journalBytes;
    }

    quarantine(bad, "tail line");
    return byHash.size();
}

std::size_t
ResultStore::loadJournalFullScan()
{
    // Mutex already held by loadJournal().
    std::ifstream in(journalPath());
    if (!in)
        return 0;
    std::string line;
    std::size_t lineno = 0;
    std::size_t loaded = 0;
    std::string good; ///< the parsable lines, newline-terminated
    BadLines bad;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        // Truncated flush, disk corruption, or an injected fault: set
        // the line aside and keep going — the job re-runs.
        if (replay(line, lineno, "line", bad)) {
            good.append(line).push_back('\n');
            ++loaded;
        }
    }
    in.close();

    quarantine(bad, "line");
    if (!bad.empty()) {
        // Rewrite the journal with only the parsable lines, atomically
        // so a crash here cannot lose good entries. Safe here
        // precisely because no checkpoint watermark points into this
        // file anymore.
        journal.close();
        replaceFile(journalPath(), good);
        journal.open(journalPath(), std::ios::app);
        if (!journal)
            ioError("sweep: cannot reopen journal '", journalPath(),
                    "'");
    }
    journalBytes = fileSizeOrZero(journalPath());
    return loaded;
}

bool
ResultStore::replay(const std::string &line, std::size_t lineno,
                    const char *what, BadLines &bad)
{
    // Mutex held.
    try {
        JobResult r = JobResult::fromJsonLine(
            line, journalPath() + " " + what + " " +
                      std::to_string(lineno));
        agg->update(r);
        pending.push_back(r);
        byHash[r.hash] = std::move(r);
        return true;
    } catch (const FatalError &e) {
        bad.emplace_back(lineno, e.what(), line);
        return false;
    }
}

void
ResultStore::quarantine(const BadLines &bad, const char *what)
{
    // Mutex held.
    if (bad.empty())
        return;
    std::ofstream out(quarantinePath(), std::ios::app);
    if (!out)
        ioError("sweep: cannot open quarantine '", quarantinePath(),
                "'");
    for (const auto &[no, reason, raw] : bad) {
        warn("sweep journal: quarantining ", what, " ", no, " (",
             reason, ")");
        out << "{\"line\":" << no << ",\"reason\":\""
            << obs::jsonEscape(reason) << "\",\"data\":\""
            << obs::jsonEscape(raw) << "\"}\n";
    }
    out.flush();
    quarantinedLines = bad.size();
    obs::MetricsRegistry::global()
        .counter("resilience.journal.quarantined")
        .add(bad.size());
    obs::MetricsRegistry::global()
        .counter("sweep.journal.quarantined_lines")
        .add(bad.size());
}

std::size_t
ResultStore::quarantined() const
{
    std::lock_guard<std::mutex> lock(mu);
    return quarantinedLines;
}

std::size_t
ResultStore::quarantinedSegments() const
{
    std::lock_guard<std::mutex> lock(mu);
    return quarantinedSegs;
}

bool
ResultStore::has(const std::string &hash) const
{
    std::lock_guard<std::mutex> lock(mu);
    return byHash.count(hash) != 0;
}

const JobResult *
ResultStore::findResult(const std::string &hash) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = byHash.find(hash);
    return it == byHash.end() ? nullptr : &it->second;
}

void
ResultStore::add(const JobResult &result)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    static obs::Counter &bytesWritten =
        reg.counter("sweep.journal.bytes_written");
    static obs::Timer &flushTimer =
        reg.timer("sweep.journal.flush_seconds");
    static obs::Timer &aggTimer = reg.timer("sweep.agg.update_seconds");

    std::string line = result.toJsonLine();
    std::lock_guard<std::mutex> lock(mu);
    FaultInjector &faults = FaultInjector::global();
    bool rowFault = false;
    std::uint64_t wrote = 0;
    if (faults.shouldFire(faultpoint::JournalTruncate, result.name)) {
        // Simulate a kill mid-flush: a prefix with no newline, so the
        // next append (if any) merges into one unparsable line.
        journal << line.substr(0, line.size() / 2);
        wrote = line.size() / 2;
        rowFault = true;
    } else if (faults.shouldFire(faultpoint::JournalCorrupt, result.name)) {
        for (std::size_t i = 1; i < line.size(); i += 9)
            line[i] = '#';
        journal << line << "\n";
        wrote = line.size() + 1;
        rowFault = true;
    } else {
        journal << line << "\n";
        wrote = line.size() + 1;
    }
    {
        obs::ScopedTimer t(flushTimer);
        journal.flush();
    }
    bytesWritten.add(wrote);
    byHash[result.hash] = result;

    if (rowFault) {
        // The journaled bytes for this row are damaged; on resume the
        // line is quarantined and the job re-runs. From here on the
        // store behaves like a writer that died: no more seals or
        // checkpoints (they would claim coverage of a journal we just
        // mangled), and this row never reaches the aggregates or a
        // segment.
        crashed = true;
        return;
    }

    {
        obs::ScopedTimer t(aggTimer);
        agg->update(result);
    }
    if (crashed)
        return;
    journalBytes += wrote;
    pending.push_back(result);
    sealPending(options.segmentJobs);
}

void
ResultStore::sealPending(std::size_t least)
{
    // Mutex held. Seal chunks of segmentJobs rows, the last one short,
    // while at least @p least rows wait.
    static obs::Counter &bytesWritten =
        obs::MetricsRegistry::global().counter(
            "sweep.journal.bytes_written");
    while (!crashed && !pending.empty() && pending.size() >= least) {
        const auto rows = static_cast<std::ptrdiff_t>(
            std::min(pending.size(), options.segmentJobs));
        const std::vector<JobResult> chunk(
            std::make_move_iterator(pending.begin()),
            std::make_move_iterator(pending.begin() + rows));
        const SegmentWriteInfo info = writeSegmentFile(
            segmentPath(dir_, nextSegmentIndex), chunk);
        bytesWritten.add(info.bytes);
        if (info.torn) {
            // The injected mid-seal kill: the writer is "dead" now.
            crashed = true;
            return;
        }
        pending.erase(pending.begin(), pending.begin() + rows);
        ++nextSegmentIndex;
        // A checkpoint claims every row journaled so far, so write one
        // only when none of them still waits here. After a resume the
        // buffer starts with the journal's replayed tail, which can
        // take several seals (and a crash between them) to drain.
        if (pending.empty())
            writeCheckpoint();
    }
}

void
ResultStore::writeCheckpoint()
{
    // Mutex held. A reader never sees a half-written checkpoint; an
    // unreadable one just forces the full-scan path.
    std::string out = std::string("{\"schema\":\"") +
                      kCheckpointSchema + "\"";
    out += ",\"coverage\":{\"jobs\":" + std::to_string(agg->jobs());
    out += ",\"sealed_segments\":" + std::to_string(nextSegmentIndex);
    out += ",\"jsonl_offset\":" + std::to_string(journalBytes) + "}";
    out += ",\"aggregates\":" + agg->toJson() + "}\n";
    replaceFile(checkpointPath(), out);
}

void
ResultStore::finalize()
{
    std::lock_guard<std::mutex> lock(mu);
    if (crashed)
        return;
    if (pending.empty())
        writeCheckpoint();
    else
        sealPending(1);
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return byHash.size();
}

std::size_t
ResultStore::sealedSegments() const
{
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<std::size_t>(nextSegmentIndex);
}

std::string
ResultStore::aggregatesJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    return agg->toJson();
}

} // namespace irtherm::sweep
