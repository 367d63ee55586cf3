#include "sweep/result_store.hh"

#include <filesystem>
#include <tuple>
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
    std::string out = "{";
    out += "\"hash\":\"" + obs::jsonEscape(hash) + "\"";
    out += ",\"name\":\"" + obs::jsonEscape(name) + "\"";
    out += ",\"status\":\"" + std::string(jobStatusName(status)) + "\"";
    out += ",\"error\":\"" + obs::jsonEscape(error) + "\"";
    out += ",\"error_class\":\"" +
           std::string(errorClassName(errorClass)) + "\"";
    out += ",\"attempts\":" + std::to_string(attempts);
    out += ",\"fallback_tier\":" + std::to_string(fallbackTier);
    out += ",\"wall_s\":" + obs::jsonNumber(wallSeconds);
    out += ",\"peak_c\":" + obs::jsonNumber(peakCelsius);
    out += ",\"min_c\":" + obs::jsonNumber(minCelsius);
    out += ",\"gradient_k\":" + obs::jsonNumber(gradientKelvin);
    out += ",\"hottest\":\"" + obs::jsonEscape(hottestUnit) + "\"";
    out += ",\"heat_primary_w\":" + obs::jsonNumber(heatPrimaryWatts);
    out += ",\"heat_secondary_w\":" + obs::jsonNumber(heatSecondaryWatts);
    out += ",\"cg_iterations\":" + std::to_string(cgIterations);
    out += ",\"warm_start\":";
    out += warmStarted ? "true" : "false";
    out += ",\"impulse_hit\":";
    out += impulseCacheHit ? "true" : "false";
    out += ",\"resources\":{\"cpu_s\":" +
           obs::jsonNumber(resources.cpuSeconds) +
           ",\"rss_delta_kb\":" +
           std::to_string(resources.peakRssDeltaKb) +
           ",\"solver_iterations\":" +
           std::to_string(resources.solverIterations) +
           ",\"retries\":" + std::to_string(resources.retries) +
           ",\"fallbacks\":" +
           std::to_string(resources.fallbackEscalations) + "}";
    if (!axisValues.empty()) {
        out += ",\"axes\":{";
        bool first = true;
        for (const auto &[key, value] : axisValues) {
            if (!first)
                out += ',';
            first = false;
            out += "\"" + obs::jsonEscape(key) + "\":\"" +
                   obs::jsonEscape(value) + "\"";
        }
        out += "}";
    }
    // Fabric provenance, omitted at its defaults so single-process
    // journals carry no fabric fields.
    if (!worker.empty())
        out += ",\"worker\":\"" + obs::jsonEscape(worker) + "\"";
    if (leaseRenewals != 0)
        out += ",\"lease_renewals\":" + std::to_string(leaseRenewals);
    if (leaseExpiries != 0)
        out += ",\"lease_expiries\":" + std::to_string(leaseExpiries);
    if (reLeases != 0)
        out += ",\"re_leases\":" + std::to_string(reLeases);
    out += ",\"blocks\":{";
    bool first = true;
    for (const auto &[block, celsius] : blockCelsius) {
        if (!first)
            out += ',';
        first = false;
        out += "\"" + obs::jsonEscape(block) +
               "\":" + obs::jsonNumber(celsius);
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
    return (std::filesystem::path(dir_) / "journal.jsonl").string();
}

std::string
ResultStore::quarantinePath() const
{
    return (std::filesystem::path(dir_) / "journal.quarantine")
        .string();
}

std::string
ResultStore::checkpointPath() const
{
    return (std::filesystem::path(dir_) / "aggregates.ckpt").string();
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
            checkpoint = loadJsonFile(checkpointPath());
            const JsonValue &schema = checkpoint.at("schema");
            if (!schema.isString() ||
                schema.text != "irtherm.sweep.aggcheckpoint.v1") {
                configError(checkpointPath(),
                            ": unsupported checkpoint schema");
            }
            const JsonValue &c = checkpoint.at("coverage");
            auto covNum = [&](const char *key) -> std::uint64_t {
                const JsonValue &v = c.at(key);
                if (!v.isNumber() || v.number < 0)
                    configError(checkpointPath(), ": bad coverage '",
                                key, "'");
                return static_cast<std::uint64_t>(v.number);
            };
            cov.jobs = covNum("jobs");
            cov.sealedSegments = covNum("sealed_segments");
            cov.jsonlOffset = covNum("jsonl_offset");
            haveCheckpoint = true;
        } catch (const FatalError &e) {
            warn("sweep: discarding unreadable aggregate checkpoint (",
                 e.what(), ")");
            haveCheckpoint = false;
        }
    }

    // A checkpoint whose offset points past the current journal means
    // the journal was rewritten/truncated behind our back; the
    // watermark is meaningless.
    if (haveCheckpoint &&
        cov.jsonlOffset > fileSizeOrZero(journalPath())) {
        warn("sweep: aggregate checkpoint covers more journal than "
             "exists; rebuilding from the full journal");
        haveCheckpoint = false;
    }

    if (haveCheckpoint) {
        // Load covered segments into the cache. Their rows are
        // already inside the checkpointed aggregates, so they are
        // NOT re-aggregated. A damaged covered segment invalidates
        // the checkpoint (its rows live before the JSONL watermark):
        // quarantine it and fall back to the full scan.
        bool coveredLoss = false;
        for (const auto &[index, path] : scan.sealed) {
            if (index >= cov.sealedSegments) {
                // Sealed after the checkpoint (crash in the window
                // between seal and checkpoint write). Its rows are in
                // the JSONL tail; set the file aside so nothing is
                // counted twice. A tear here is the injected
                // journal.torn_segment scenario.
                try {
                    (void)readSegmentFile(path);
                    warn("sweep: setting aside uncheckpointed segment '",
                         path, "' (rows recovered from journal tail)");
                    setAsideSegment(path, ".orphan");
                } catch (const FatalError &e) {
                    warn("sweep: quarantining torn segment '", path,
                         "' (", e.what(), ")");
                    setAsideSegment(path, ".torn");
                    ++quarantinedSegs;
                }
                continue;
            }
            try {
                for (JobResult &r : readSegmentFile(path)) {
                    const std::string hash = r.hash;
                    byHash[hash] = std::move(r);
                }
            } catch (const FatalError &e) {
                warn("sweep: quarantining torn segment '", path, "' (",
                     e.what(), ")");
                setAsideSegment(path, ".torn");
                ++quarantinedSegs;
                coveredLoss = true;
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
    std::size_t tailBad = 0;
    std::string tail;
    {
        std::ifstream in(journalPath(), std::ios::binary);
        if (in) {
            in.seekg(static_cast<std::streamoff>(cov.jsonlOffset));
            tail.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
        }
    }
    std::vector<std::tuple<std::size_t, std::string, std::string>> bad;
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
        const std::string context = journalPath() + " tail line " +
                                    std::to_string(tailLine);
        try {
            JobResult r = JobResult::fromJsonLine(line, context);
            agg->update(r);
            if (options.segmentJobs > 0)
                pending.push_back(r);
            byHash[r.hash] = std::move(r);
        } catch (const FatalError &e) {
            // Torn flush from the dead writer. Quarantine the
            // diagnostics but leave the journal bytes in place — a
            // rewrite would invalidate the checkpoint watermark. The
            // next checkpoint's offset moves past this line.
            bad.emplace_back(tailLine, e.what(), line);
            ++tailBad;
        }
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

    if (!bad.empty()) {
        std::ofstream quarantine(quarantinePath(), std::ios::app);
        if (!quarantine)
            ioError("sweep: cannot open quarantine '",
                    quarantinePath(), "'");
        for (const auto &[no, reason, raw] : bad) {
            warn("sweep journal: quarantining tail line ", no, " (",
                 reason, ")");
            quarantine << "{\"line\":" << no << ",\"reason\":\""
                       << obs::jsonEscape(reason) << "\",\"data\":\""
                       << obs::jsonEscape(raw) << "\"}\n";
        }
        quarantine.flush();
        quarantinedLines = bad.size();
        obs::MetricsRegistry::global()
            .counter("resilience.journal.quarantined")
            .add(bad.size());
        obs::MetricsRegistry::global()
            .counter("sweep.journal.quarantined_lines")
            .add(bad.size());
    }
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
    std::vector<std::string> good;
    // {lineno, reason, raw line} of every unparsable entry.
    std::vector<std::tuple<std::size_t, std::string, std::string>> bad;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        const std::string context =
            journalPath() + " line " + std::to_string(lineno);
        try {
            JobResult r = JobResult::fromJsonLine(line, context);
            agg->update(r);
            if (options.segmentJobs > 0)
                pending.push_back(r);
            byHash[r.hash] = std::move(r);
            good.push_back(line);
            ++loaded;
        } catch (const FatalError &e) {
            // Truncated flush, disk corruption, or an injected fault:
            // set the line aside and keep going — the job re-runs.
            bad.emplace_back(lineno, e.what(), line);
        }
    }
    in.close();

    if (!bad.empty()) {
        std::ofstream quarantine(quarantinePath(), std::ios::app);
        if (!quarantine)
            ioError("sweep: cannot open quarantine '",
                    quarantinePath(), "'");
        for (const auto &[no, reason, raw] : bad) {
            warn("sweep journal: quarantining line ", no, " (",
                 reason, ")");
            quarantine << "{\"line\":" << no << ",\"reason\":\""
                       << obs::jsonEscape(reason) << "\",\"data\":\""
                       << obs::jsonEscape(raw) << "\"}\n";
        }
        quarantine.flush();

        // Rewrite the journal with only the parsable lines, atomically
        // (tmp + rename) so a crash here cannot lose good entries.
        // Safe here precisely because no checkpoint watermark points
        // into this file anymore.
        const std::string tmp = journalPath() + ".tmp";
        {
            std::ofstream out(tmp, std::ios::trunc);
            if (!out)
                ioError("sweep: cannot write '", tmp, "'");
            for (const std::string &l : good)
                out << l << "\n";
            out.flush();
            if (!out)
                ioError("sweep: short write to '", tmp, "'");
        }
        journal.close();
        std::error_code ec;
        std::filesystem::rename(tmp, journalPath(), ec);
        if (ec) {
            ioError("sweep: cannot replace journal '", journalPath(),
                    "': ", ec.message());
        }
        journal.open(journalPath(), std::ios::app);
        if (!journal)
            ioError("sweep: cannot reopen journal '", journalPath(),
                    "'");
        quarantinedLines = bad.size();
        obs::MetricsRegistry::global()
            .counter("resilience.journal.quarantined")
            .add(bad.size());
        obs::MetricsRegistry::global()
            .counter("sweep.journal.quarantined_lines")
            .add(bad.size());
    }
    journalBytes = fileSizeOrZero(journalPath());
    return loaded;
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
    std::lock_guard<std::mutex> lock(mu);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    static obs::Counter &bytesWritten =
        reg.counter("sweep.journal.bytes_written");
    static obs::Timer &flushTimer =
        reg.timer("sweep.journal.flush_seconds");
    static obs::Timer &aggTimer = reg.timer("sweep.agg.update_seconds");

    std::string line = result.toJsonLine();
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
    if (options.segmentJobs > 0) {
        pending.push_back(result);
        if (pending.size() >= options.segmentJobs)
            sealPending();
    }
}

void
ResultStore::sealPending()
{
    // Mutex held. Seal full chunks; finalize() handles the remainder.
    static obs::Counter &bytesWritten =
        obs::MetricsRegistry::global().counter(
            "sweep.journal.bytes_written");
    while (!crashed && pending.size() >= options.segmentJobs &&
           options.segmentJobs > 0) {
        std::vector<JobResult> chunk(
            pending.begin(),
            pending.begin() +
                static_cast<std::ptrdiff_t>(options.segmentJobs));
        const SegmentWriteInfo info = writeSegmentFile(
            segmentPath(dir_, nextSegmentIndex), chunk);
        bytesWritten.add(info.bytes);
        if (info.torn) {
            // The injected mid-seal kill: the writer is "dead" now.
            crashed = true;
            return;
        }
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(
                                            options.segmentJobs));
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
    // Mutex held. tmp + rename so readers never see a half-written
    // checkpoint; an unreadable one just forces the full-scan path.
    std::string out = "{\"schema\":\"irtherm.sweep.aggcheckpoint.v1\"";
    out += ",\"coverage\":{\"jobs\":" + std::to_string(agg->jobs());
    out += ",\"sealed_segments\":" + std::to_string(nextSegmentIndex);
    out += ",\"jsonl_offset\":" + std::to_string(journalBytes) + "}";
    out += ",\"aggregates\":" + agg->toJson() + "}\n";

    const std::string tmp = checkpointPath() + ".tmp";
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (!f)
            ioError("sweep: cannot write '", tmp, "'");
        f << out;
        f.flush();
        if (!f)
            ioError("sweep: short write to '", tmp, "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, checkpointPath(), ec);
    if (ec)
        ioError("sweep: cannot replace checkpoint '", checkpointPath(),
                "': ", ec.message());
}

void
ResultStore::finalize()
{
    std::lock_guard<std::mutex> lock(mu);
    if (crashed || options.segmentJobs == 0)
        return;
    sealPending();
    if (crashed)
        return;
    if (!pending.empty()) {
        const SegmentWriteInfo info = writeSegmentFile(
            segmentPath(dir_, nextSegmentIndex), pending);
        obs::MetricsRegistry::global()
            .counter("sweep.journal.bytes_written")
            .add(info.bytes);
        if (info.torn) {
            crashed = true;
            return;
        }
        pending.clear();
        ++nextSegmentIndex;
    }
    writeCheckpoint();
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
