#include "sweep/result_store.hh"

#include <filesystem>
#include <vector>

#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "sweep/aggregate.hh"
#include "sweep/json.hh"

namespace irtherm::sweep
{

namespace
{

std::string
pathIn(const std::string &dir, const char *name)
{
    return (std::filesystem::path(dir) / name).string();
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

bool
scanJournal(const std::string &path, const JournalRowFn &onRow,
            const JournalBadLineFn &onBad)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        // A truncated flush, disk corruption, or an injected fault.
        JobResult row;
        try {
            row = JobResult::fromJsonLine(
                line, path + " line " + std::to_string(lineno));
        } catch (const FatalError &e) {
            onBad(lineno, e.what(), line);
            continue;
        }
        onRow(std::move(row), line);
    }
    return true;
}

JournalData
readJournal(const std::string &path, const JournalBadLineFn &onBad)
{
    const std::string file = std::filesystem::is_directory(path)
                                 ? pathIn(path, "journal.jsonl")
                                 : path;
    JournalData data;
    std::map<std::string, JobResult> rows;
    SweepAggregator agg;
    const bool opened = scanJournal(
        file,
        [&](JobResult &&row, const std::string &) {
            agg.update(row);
            rows[row.hash] = std::move(row);
        },
        [&](std::size_t lineno, const std::string &reason,
            const std::string &line) {
            ++data.skippedLines;
            if (onBad)
                onBad(lineno, reason, line);
        });
    if (!opened && std::filesystem::exists(file))
        ioError("sweep: cannot open journal '", file, "'");
    data.rows.reserve(rows.size());
    for (auto &[hash, row] : rows)
        data.rows.push_back(std::move(row));
    data.aggregatesJson = agg.toJson();
    return data;
}

ResultStore::ResultStore(const std::string &dir)
    : dir_(dir), agg(std::make_unique<SweepAggregator>())
{
    if (dir_.empty())
        configError("sweep: output directory must not be empty");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        ioError("sweep: cannot create output directory '", dir_,
                "': ", ec.message());
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

std::size_t
ResultStore::loadJournal()
{
    std::lock_guard<std::mutex> lock(mu);
    quarantinedLines = 0;
    agg->clear();
    std::size_t loaded = 0;
    std::string good; ///< the parsable lines, newline-terminated
    BadLines bad;
    scanJournal(
        journalPath(),
        [&](JobResult &&row, const std::string &line) {
            agg->update(row);
            good.append(line).push_back('\n');
            ++loaded;
            byHash[row.hash] = std::move(row);
        },
        [&bad](std::size_t lineno, const std::string &reason,
               const std::string &line) {
            bad.emplace_back(lineno, reason, line);
        });
    if (!bad.empty())
        quarantine(bad); // their jobs re-run

    // Rewrite the journal as exactly its parsable lines, each ending
    // in a newline, whenever it holds anything else: a set-aside line,
    // or a final row a kill left without its newline, which the next
    // append would merge into. Atomically, so a crash here cannot
    // lose good entries.
    std::error_code ec;
    if (good.size() == std::filesystem::file_size(journalPath(), ec))
        return loaded;
    journal.close();
    replaceFile(journalPath(), good);
    journal.open(journalPath(), std::ios::app);
    if (!journal)
        ioError("sweep: cannot reopen journal '", journalPath(), "'");
    tornLine = false;
    return loaded;
}

void
ResultStore::quarantine(const BadLines &bad)
{
    // Mutex held.
    std::ofstream out(quarantinePath(), std::ios::app);
    if (!out)
        ioError("sweep: cannot open quarantine '", quarantinePath(),
                "'");
    for (const auto &[no, reason, raw] : bad) {
        warn("sweep journal: quarantining line ", no, " (", reason,
             ")");
        out << "{\"line\":" << no << ",\"reason\":\""
            << obs::jsonEscape(reason) << "\",\"data\":\""
            << obs::jsonEscape(raw) << "\"}\n";
    }
    out.flush();
    quarantinedLines = bad.size();
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
    // A row merging into a torn line is as unparsable as the line.
    bool damaged = tornLine;
    tornLine = false;
    std::uint64_t wrote = 0;
    if (faults.shouldFire(faultpoint::JournalTruncate, result.name)) {
        // Simulate a kill mid-flush: a prefix with no newline, so the
        // next append (if any) merges into one unparsable line.
        journal << line.substr(0, line.size() / 2);
        wrote = line.size() / 2;
        damaged = true;
        tornLine = true;
    } else if (faults.shouldFire(faultpoint::JournalCorrupt, result.name)) {
        for (std::size_t i = 1; i < line.size(); i += 9)
            line[i] = '#';
        journal << line << "\n";
        wrote = line.size() + 1;
        damaged = true;
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

    // A damaged row is quarantined on resume and its job re-runs;
    // keeping it out here keeps the aggregates equal to a scan of
    // the journal.
    if (damaged)
        return;
    obs::ScopedTimer t(aggTimer);
    agg->update(result);
}

std::string
ResultStore::aggregatesJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    return agg->toJson();
}

} // namespace irtherm::sweep
