#include "fabric/fleet.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/errors.hh"
#include "obs/export.hh"
#include "obs/trace_clock.hh"
#include "obs/trace_context.hh"
#include "sweep/json.hh"

namespace irtherm::fabric
{

namespace
{

std::uint64_t
u64At(const sweep::JsonValue &doc, const char *key)
{
    const sweep::JsonValue *v = doc.find(key);
    if (v == nullptr || !v->isNumber() || v->number < 0.0)
        return 0;
    return static_cast<std::uint64_t>(v->number);
}

/** Prometheus label value escape: backslash, quote, newline. */
std::string
promLabel(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

std::string
WorkerMetricsSnapshot::toJson() const
{
    std::string out = "{";
    out += "\"executed\":" + std::to_string(executed);
    out += ",\"ok\":" + std::to_string(ok);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"timed_out\":" + std::to_string(timedOut);
    out += ",\"hung\":" + std::to_string(hung);
    out += ",\"leases\":" + std::to_string(leases);
    out += ",\"renewals\":" + std::to_string(renewals);
    out += ",\"retries\":" + std::to_string(retries);
    out += ",\"fallbacks\":" + std::to_string(fallbacks);
    out += ",\"impulse_hits\":" + std::to_string(impulseHits);
    out += ",\"warm_starts\":" + std::to_string(warmStarts);
    out += ",\"spans_shipped\":" + std::to_string(spansShipped);
    out += ",\"spans_dropped\":" + std::to_string(spansDropped);
    out += ",\"cpu_s\":" + obs::jsonNumber(cpuSeconds);
    out += "}";
    return out;
}

WorkerMetricsSnapshot
WorkerMetricsSnapshot::fromJson(const sweep::JsonValue &doc)
{
    WorkerMetricsSnapshot s;
    if (!doc.isObject())
        return s;
    s.executed = u64At(doc, "executed");
    s.ok = u64At(doc, "ok");
    s.failed = u64At(doc, "failed");
    s.timedOut = u64At(doc, "timed_out");
    s.hung = u64At(doc, "hung");
    s.leases = u64At(doc, "leases");
    s.renewals = u64At(doc, "renewals");
    s.retries = u64At(doc, "retries");
    s.fallbacks = u64At(doc, "fallbacks");
    s.impulseHits = u64At(doc, "impulse_hits");
    s.warmStarts = u64At(doc, "warm_starts");
    s.spansShipped = u64At(doc, "spans_shipped");
    s.spansDropped = u64At(doc, "spans_dropped");
    if (const sweep::JsonValue *v = doc.find("cpu_s")) {
        if (v->isNumber())
            s.cpuSeconds = v->number;
    }
    return s;
}

void
FleetBoard::stampLocked(Slot &slot)
{
    slot.lastSeen = obs::monotonicSeconds();
    ++slot.heartbeats;
    if (slot.suspect) {
        slot.suspect = false;
        ++slot.flaps;
    }
}

void
FleetBoard::heartbeat(const std::string &worker)
{
    std::lock_guard<std::mutex> lock(mu);
    stampLocked(slots[worker]);
}

void
FleetBoard::ingest(const std::string &worker,
                   const WorkerMetricsSnapshot &snap)
{
    std::lock_guard<std::mutex> lock(mu);
    Slot &slot = slots[worker];
    stampLocked(slot);
    slot.snap = snap;
    slot.window.emplace_back(slot.lastSeen, snap.executed);
    while (slot.window.size() > 16)
        slot.window.pop_front();
}

std::vector<std::string>
FleetBoard::sweepSuspects(double thresholdSeconds)
{
    const double now = obs::monotonicSeconds();
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> fresh;
    for (auto &[name, slot] : slots) {
        if (slot.suspect)
            continue;
        if (now - slot.lastSeen > thresholdSeconds) {
            slot.suspect = true;
            fresh.push_back(name);
        }
    }
    return fresh;
}

std::vector<FleetWorkerRow>
FleetBoard::rows(
    const std::map<std::string, LeaseTable::WorkerLeases> &leases)
    const
{
    const double now = obs::monotonicSeconds();
    std::lock_guard<std::mutex> lock(mu);
    std::vector<FleetWorkerRow> out;
    out.reserve(slots.size());
    for (const auto &[name, slot] : slots) {
        FleetWorkerRow row;
        row.name = name;
        row.heartbeatAgeSeconds = std::max(0.0, now - slot.lastSeen);
        row.heartbeats = slot.heartbeats;
        row.suspect = slot.suspect;
        row.flaps = slot.flaps;
        row.metrics = slot.snap;
        if (slot.window.size() >= 2) {
            const auto &first = slot.window.front();
            const auto &last = slot.window.back();
            const double dt = last.first - first.first;
            if (dt > 0.0 && last.second >= first.second) {
                row.jobsPerSecond =
                    static_cast<double>(last.second - first.second) /
                    dt;
            }
        }
        const auto it = leases.find(name);
        if (it != leases.end())
            row.leases = it->second;
        out.push_back(std::move(row));
    }
    return out;
}

std::string
FleetBoard::fleetJson(
    const std::map<std::string, LeaseTable::WorkerLeases> &leases,
    const std::string &traceId, std::uint64_t spansStored,
    std::uint64_t spansDroppedHere) const
{
    std::ostringstream os;
    os << "{\"schema\":\"irtherm.fleet.v1\""
       << ",\"trace_id\":\"" << obs::jsonEscape(traceId) << "\""
       << ",\"spans\":{\"stored\":" << spansStored
       << ",\"dropped\":" << spansDroppedHere << "}"
       << ",\"workers\":{";
    bool first = true;
    for (const FleetWorkerRow &row : rows(leases)) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << obs::jsonEscape(row.name) << "\":{"
           << "\"heartbeat_age_s\":"
           << obs::jsonNumber(row.heartbeatAgeSeconds)
           << ",\"heartbeats\":" << row.heartbeats
           << ",\"suspect\":" << (row.suspect ? "true" : "false")
           << ",\"flaps\":" << row.flaps
           << ",\"jobs_per_s\":" << obs::jsonNumber(row.jobsPerSecond)
           << ",\"leases\":{\"granted\":" << row.leases.granted
           << ",\"expired\":" << row.leases.expired
           << ",\"live\":" << row.leases.liveLeases
           << ",\"live_jobs\":" << row.leases.liveJobs << "}"
           << ",\"metrics\":" << row.metrics.toJson() << "}";
    }
    os << "}}";
    return os.str();
}

std::string
FleetBoard::prometheusText(
    const std::map<std::string, LeaseTable::WorkerLeases> &leases)
    const
{
    const std::vector<FleetWorkerRow> all = rows(leases);

    // Cardinality cap: the first kMaxLabeledWorkers (map order, so
    // stable by name) keep their own label; the rest fold into one
    // "_other" row (sums; heartbeat age takes the max — the oldest
    // is the interesting one).
    std::vector<FleetWorkerRow> labeled;
    FleetWorkerRow other;
    other.name = "_other";
    bool haveOther = false;
    for (const FleetWorkerRow &row : all) {
        if (labeled.size() < kMaxLabeledWorkers) {
            labeled.push_back(row);
            continue;
        }
        haveOther = true;
        other.heartbeatAgeSeconds = std::max(
            other.heartbeatAgeSeconds, row.heartbeatAgeSeconds);
        other.suspect = other.suspect || row.suspect;
        other.jobsPerSecond += row.jobsPerSecond;
        other.metrics.executed += row.metrics.executed;
        other.metrics.failed += row.metrics.failed;
        other.metrics.retries += row.metrics.retries;
        other.metrics.fallbacks += row.metrics.fallbacks;
        other.metrics.impulseHits += row.metrics.impulseHits;
        other.leases.expired += row.leases.expired;
        other.leases.liveLeases += row.leases.liveLeases;
    }
    if (haveOther)
        labeled.push_back(other);

    std::ostringstream os;
    os << "# HELP irtherm_fleet_workers workers seen by the "
          "coordinator\n# TYPE irtherm_fleet_workers gauge\n"
       << "irtherm_fleet_workers " << all.size() << "\n";

    struct Family
    {
        const char *name;
        const char *type;
        const char *help;
        double (*value)(const FleetWorkerRow &);
    };
    static const Family kFamilies[] = {
        {"irtherm_fleet_jobs_total", "counter",
         "jobs executed per worker",
         [](const FleetWorkerRow &r) {
             return static_cast<double>(r.metrics.executed);
         }},
        {"irtherm_fleet_failed_total", "counter",
         "failed jobs per worker",
         [](const FleetWorkerRow &r) {
             return static_cast<double>(r.metrics.failed);
         }},
        {"irtherm_fleet_retries_total", "counter",
         "job retries per worker",
         [](const FleetWorkerRow &r) {
             return static_cast<double>(r.metrics.retries);
         }},
        {"irtherm_fleet_fallbacks_total", "counter",
         "solver fallback escalations per worker",
         [](const FleetWorkerRow &r) {
             return static_cast<double>(r.metrics.fallbacks);
         }},
        {"irtherm_fleet_cache_hits_total", "counter",
         "impulse-cache hits per worker",
         [](const FleetWorkerRow &r) {
             return static_cast<double>(r.metrics.impulseHits);
         }},
        {"irtherm_fleet_lease_expiries_total", "counter",
         "expired leases per worker",
         [](const FleetWorkerRow &r) {
             return static_cast<double>(r.leases.expired);
         }},
        {"irtherm_fleet_leases_live", "gauge",
         "live leases per worker",
         [](const FleetWorkerRow &r) {
             return static_cast<double>(r.leases.liveLeases);
         }},
        {"irtherm_fleet_heartbeat_age_seconds", "gauge",
         "seconds since each worker's last contact",
         [](const FleetWorkerRow &r) {
             return r.heartbeatAgeSeconds;
         }},
        {"irtherm_fleet_jobs_per_second", "gauge",
         "trailing job throughput per worker",
         [](const FleetWorkerRow &r) { return r.jobsPerSecond; }},
        {"irtherm_fleet_suspect", "gauge",
         "1 when the worker's heartbeat is overdue",
         [](const FleetWorkerRow &r) {
             return r.suspect ? 1.0 : 0.0;
         }},
    };
    for (const Family &fam : kFamilies) {
        os << "# HELP " << fam.name << " " << fam.help << "\n"
           << "# TYPE " << fam.name << " " << fam.type << "\n";
        for (const FleetWorkerRow &row : labeled) {
            os << fam.name << "{worker=\"" << promLabel(row.name)
               << "\"} " << obs::jsonNumber(fam.value(row)) << "\n";
        }
    }
    return os.str();
}

std::size_t
FleetBoard::suspectCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const auto &[name, slot] : slots)
        n += slot.suspect ? 1 : 0;
    return n;
}

FleetTraceStore::FleetTraceStore(std::size_t capacity) : cap(capacity)
{}

std::size_t
FleetTraceStore::ingestBatch(const std::string &body,
                             double coordEpochUnixSeconds,
                             std::string *workerOut, bool *finalOut)
{
    const sweep::JsonValue doc = sweep::parseJson(body, "/spans body");
    if (!doc.isObject())
        configError("/spans: body must be an object");
    const sweep::JsonValue &workerVal = doc.at("worker");
    if (!workerVal.isString() || workerVal.text.empty())
        configError("/spans: 'worker' must be a non-empty string");
    const std::string worker = workerVal.text;
    if (workerOut != nullptr)
        *workerOut = worker;
    if (finalOut != nullptr) {
        const sweep::JsonValue *v = doc.find("final");
        *finalOut = v != nullptr && v->isBool() && v->boolean;
    }

    double epochDelta = 0.0;
    if (const sweep::JsonValue *v = doc.find("wall_epoch_unix_s")) {
        if (v->isNumber())
            epochDelta = v->number - coordEpochUnixSeconds;
    }
    // The granting lease's span id, kept on root records so a merged
    // root names the lease it ran under.
    std::string leaseSpan;
    if (const sweep::JsonValue *v = doc.find("lease_span")) {
        if (v->isString() && obs::parseSpanIdHex(v->text) != 0)
            leaseSpan = v->text;
    }
    if (const sweep::JsonValue *v = doc.find("dropped")) {
        if (v->isNumber() && v->number > 0) {
            std::lock_guard<std::mutex> lock(mu);
            workerDroppedMax = std::max(
                workerDroppedMax,
                static_cast<std::uint64_t>(v->number));
        }
    }

    const sweep::JsonValue *list = doc.find("spans");
    if (list == nullptr || !list->isArray())
        return 0;

    std::size_t accepted = 0;
    std::lock_guard<std::mutex> lock(mu);
    std::vector<obs::SpanRecord> &dst = spans[worker];
    for (const sweep::JsonValue &s : list->items) {
        if (!s.isObject())
            continue;
        if (stored >= cap) {
            ++droppedCount;
            continue;
        }
        obs::SpanRecord r;
        r.id = u64At(s, "id");
        r.parentId = u64At(s, "parent");
        r.threadIndex = static_cast<std::uint32_t>(u64At(s, "tid"));
        r.depth = static_cast<std::uint32_t>(u64At(s, "depth"));
        if (const sweep::JsonValue *v = s.find("name")) {
            if (v->isString())
                r.name = v->text;
        }
        if (const sweep::JsonValue *v = s.find("start_s")) {
            if (v->isNumber())
                r.startSeconds = v->number + epochDelta;
        }
        if (const sweep::JsonValue *v = s.find("dur_s")) {
            if (v->isNumber())
                r.durationSeconds = v->number;
        }
        if (const sweep::JsonValue *v = s.find("instant"))
            r.instant = v->isBool() && v->boolean;
        if (const sweep::JsonValue *attrs = s.find("attrs")) {
            if (attrs->isObject()) {
                // Workers ship numbers and strings; anything else
                // (a non-finite number arrives as null) stays null.
                for (const auto &[key, value] : attrs->members) {
                    if (value.isString())
                        r.attrs.emplace_back(key, value.text);
                    else
                        r.attrs.emplace_back(
                            key, value.isNumber() ? value.number
                                                  : std::nan(""));
                }
            }
        }
        if (r.parentId == 0 && !leaseSpan.empty())
            r.attrs.emplace_back("ctx_parent", leaseSpan);
        dst.push_back(std::move(r));
        ++stored;
        ++receivedCount;
        ++accepted;
    }
    return accepted;
}

std::uint64_t
FleetTraceStore::received() const
{
    std::lock_guard<std::mutex> lock(mu);
    return receivedCount;
}

std::uint64_t
FleetTraceStore::dropped() const
{
    std::lock_guard<std::mutex> lock(mu);
    return droppedCount;
}

std::uint64_t
FleetTraceStore::workerDropped() const
{
    std::lock_guard<std::mutex> lock(mu);
    return workerDroppedMax;
}

std::size_t
FleetTraceStore::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return stored;
}

std::string
FleetTraceStore::mergedTraceJson(const obs::SpanRecorder &local,
                                 const std::string &traceId) const
{
    // Coordinator: pid 1, its recorder's own thread tracks. Workers:
    // one pid (= one Perfetto track group) each, stable by name
    // order, one track per shipped thread index.
    const std::vector<obs::SpanRecord> localRecords = local.snapshot();
    std::vector<obs::TraceProcess> processes{
        {1, "coordinator", local.threadLabels(), &localRecords}};
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &[worker, list] : spans) {
        obs::TraceProcess p{static_cast<int>(processes.size()) + 1,
                            worker, {}, &list};
        for (const obs::SpanRecord &r : list) {
            const bool seen = std::any_of(
                p.threads.begin(), p.threads.end(),
                [&](const auto &t) { return t.first == r.threadIndex; });
            if (!seen)
                p.threads.emplace_back(
                    r.threadIndex,
                    worker + " t" + std::to_string(r.threadIndex));
        }
        processes.push_back(std::move(p));
    }
    return obs::traceEventJson(processes, traceId);
}

} // namespace irtherm::fabric
