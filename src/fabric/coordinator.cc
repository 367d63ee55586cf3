#include "fabric/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "base/shutdown.hh"
#include "fabric/fleet.hh"
#include "fabric/lease_table.hh"
#include "fabric/result_cache.hh"
#include "obs/export.hh"
#include "obs/http_server.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_clock.hh"
#include "obs/trace_context.hh"
#include "sweep/json.hh"
#include "sweep/session.hh"

namespace irtherm::fabric
{

namespace
{

using sweep::JobResult;
using sweep::JsonValue;
using sweep::ScenarioSpec;

obs::HttpResponse
jsonResponse(int status, const std::string &body)
{
    return obs::HttpResponse{status, "application/json", body + "\n"};
}

/** One job as the wire protocol carries it. */
std::string
jobToJson(const ScenarioSpec &spec)
{
    std::string out = "{\"hash\":\"" + spec.hashHex() +
                      "\",\"settings\":{";
    bool first = true;
    for (const auto &[key, value] : spec.settings()) {
        if (!first)
            out += ',';
        first = false;
        out += "\"" + obs::jsonEscape(key) + "\":\"" +
               obs::jsonEscape(value) + "\"";
    }
    out += "}}";
    return out;
}

std::string
requireString(const JsonValue &doc, const char *key,
              const std::string &context)
{
    const JsonValue *v = doc.find(key);
    if (v == nullptr || !v->isString())
        configError(context, ": '", key, "' must be a string");
    return v->text;
}

} // namespace

CoordinatorSummary
runCoordinator(const sweep::SweepPlan &plan,
               const CoordinatorOptions &opts)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::ScopedTimer batchTimer(reg.timer("sweep.batch_time"));
    if (!opts.fleetTraceOut.empty())
        obs::SpanRecorder::global().setEnabled(true);
    obs::SpanRecorder::setThreadLabel("coordinator");
    obs::ScopedSpan batchSpan("fabric.coordinate");
    batchSpan.attr("plan", plan.name());

    // The sweep's trace id: every lease grant propagates it, every
    // shipped span batch merges under it, logs correlate by it.
    const std::string traceId = obs::mintTraceId();
    obs::setProcessTraceContext(
        {traceId, obs::SpanRecorder::currentSpanId()});

    CoordinatorSummary out;
    out.traceId = traceId;

    // The session owns the store, the queue, the tally and the
    // reports, exactly as for a local sweep; the shared cache plugs
    // in through the same hooks the CLI builds for one.
    sweep::SweepOptions so;
    so.outDir = opts.outDir;
    so.resume = opts.resume;
    so.writeReports = opts.writeReports;
    std::unique_ptr<ResultCache> cache;
    if (!opts.cacheDir.empty()) {
        cache = std::make_unique<ResultCache>(opts.cacheDir);
        cache->attach(so);
    }
    sweep::SweepSession session(plan, so);
    const std::vector<const ScenarioSpec *> &pending = session.pending();

    std::map<std::string, std::size_t> indexByHash;
    for (std::size_t i = 0; i < pending.size(); ++i)
        indexByHash[pending[i]->hashHex()] = i;

    LeaseTable table(pending.size(), opts.leaseTtlSeconds);

    IRTHERM_EVENT("fabric.coordinate.start", {"plan", plan.name()},
                  {"jobs", session.summary().total},
                  {"pending", pending.size()},
                  {"cached", session.summary().cached},
                  {"shared_cache_hits",
                   session.summary().sharedCacheHits});

    // Workers told by a /complete reply that the sweep is done that
    // still owe their final span flush; the handlers book them on the
    // listener thread and the main loop waits for them (guarded by mu).
    std::mutex mu;
    std::set<std::string> owedFlush;
    std::condition_variable flushed;

    // Fleet observability: heartbeats + federated snapshots, shipped
    // span batches, and per-lease span ids minted from a counter in
    // their own id range (clear of the local recorder's small ids).
    FleetBoard fleet;
    FleetTraceStore traceStore;
    std::atomic<std::uint64_t> nextLeaseSpan{0x1000000000000000ull};
    const double suspectAfter =
        opts.suspectAfterSeconds > 0.0
            ? opts.suspectAfterSeconds
            : std::max(2.5 * opts.leaseTtlSeconds, 5.0);

    obs::HttpServer server;
    // Span batches are bigger than lease traffic; one batch of ~1024
    // spans with attrs needs more than the 256 KiB default.
    server.setMaxBodyBytes(1 << 20);
    if (opts.admitRatePerSecond > 0.0)
        server.limitRequestRate(opts.admitRatePerSecond,
                                opts.admitBurst);

    const auto fleetJson = [&] {
        return fleet.fleetJson(table.workerLeases(), traceId,
                               traceStore.size(),
                               traceStore.dropped());
    };

    // The fleet board rides along in /status and in /metrics as
    // irtherm_fleet_* series.
    session.route(
        server, [&fleetJson] { return "\"fleet\":" + fleetJson(); },
        [&fleet, &table] {
            return fleet.prometheusText(table.workerLeases());
        });
    server.route("/fleet", [&fleetJson] {
        return jsonResponse(200, fleetJson());
    });
    server.route("/trace", [&traceStore, &traceId] {
        return obs::HttpResponse{
            200, "application/json",
            traceStore.mergedTraceJson(obs::SpanRecorder::global(),
                                       traceId)};
    });

    server.route("POST", "/lease", [&](const obs::HttpRequest &req) {
        std::string worker;
        std::size_t maxJobs = opts.leaseJobs;
        try {
            const JsonValue doc =
                sweep::parseJson(req.body, "POST /lease");
            worker = requireString(doc, "worker", "POST /lease");
            if (const JsonValue *v = doc.find("max_jobs")) {
                if (v->isNumber() && v->number >= 1)
                    maxJobs = std::min(
                        maxJobs,
                        static_cast<std::size_t>(v->number));
            }
        } catch (const FatalError &e) {
            return jsonResponse(
                400, std::string("{\"error\":\"") +
                         obs::jsonEscape(e.what()) + "\"}");
        }
        // A draining coordinator grants nothing and tells the fleet
        // it is done, so workers exit instead of polling a corpse.
        const bool draining = shutdownRequested();
        LeaseGrant grant;
        if (!draining)
            grant = table.lease(worker, maxJobs);
        session.board().setWorkers(table.workersSeen());
        fleet.heartbeat(worker);
        const std::string wireCtx = obs::formatTraceContext(
            {traceId,
             nextLeaseSpan.fetch_add(1, std::memory_order_relaxed)});
        std::string body = "{\"token\":\"" + grant.token +
                           "\",\"trace\":\"" + wireCtx +
                           "\",\"ttl_s\":" +
                           obs::jsonNumber(grant.ttlSeconds) +
                           ",\"done\":";
        body += (draining || table.allComplete()) ? "true" : "false";
        body += ",\"jobs\":[";
        bool first = true;
        for (const std::size_t i : grant.jobs) {
            if (!first)
                body += ',';
            first = false;
            body += jobToJson(*pending[i]);
        }
        body += "]}";
        if (!grant.jobs.empty()) {
            IRTHERM_EVENT("fabric.lease.granted",
                          {"token", grant.token}, {"worker", worker},
                          {"jobs", grant.jobs.size()});
        }
        obs::HttpResponse resp = jsonResponse(200, body);
        resp.headers.emplace_back(obs::kTraceHeaderName, wireCtx);
        return resp;
    });

    // A renew/complete body optionally names its worker and carries a
    // metrics snapshot — both are observability, so both are lenient:
    // absent members just skip the board update.
    const auto boardUpdate = [&fleet](const JsonValue &doc) {
        const JsonValue *w = doc.find("worker");
        if (w == nullptr || !w->isString() || w->text.empty())
            return;
        if (const JsonValue *m = doc.find("metrics"))
            fleet.ingest(w->text,
                         WorkerMetricsSnapshot::fromJson(*m));
        else
            fleet.heartbeat(w->text);
    };

    server.route("POST", "/renew", [&](const obs::HttpRequest &req) {
        std::string token;
        try {
            const JsonValue doc =
                sweep::parseJson(req.body, "POST /renew");
            token = requireString(doc, "token", "POST /renew");
            boardUpdate(doc);
        } catch (const FatalError &e) {
            return jsonResponse(
                400, std::string("{\"error\":\"") +
                         obs::jsonEscape(e.what()) + "\"}");
        }
        // Injected lease loss: the coordinator "forgets" the lease —
        // the holder must re-lease, and its jobs go back to the
        // queue. Any completes it still sends are first-wins.
        if (FaultInjector::global().shouldFire(faultpoint::LeaseLost, token)) {
            table.expireToken(token);
            warn("fabric: injected lease.lost for ", token);
            return jsonResponse(410, "{\"ok\":false}");
        }
        if (!table.renew(token))
            return jsonResponse(410, "{\"ok\":false}");
        return jsonResponse(
            200, "{\"ok\":true,\"ttl_s\":" +
                     obs::jsonNumber(opts.leaseTtlSeconds) + "}");
    });

    server.route("POST", "/complete", [&](const obs::HttpRequest &req) {
        std::size_t accepted = 0;
        std::size_t duplicates = 0;
        std::size_t unknown = 0;
        // A worker that ships spans owes its final flush once a reply
        // says the sweep is done. The debt is booked before the batch
        // can complete the sweep, so the main loop never sees it done
        // first, and dropped again unless the reply says done.
        std::string flushWorker;
        const auto owe = [&](bool owed) {
            if (flushWorker.empty())
                return;
            std::lock_guard<std::mutex> lock(mu);
            if (owed) {
                owedFlush.insert(flushWorker);
            } else {
                owedFlush.erase(flushWorker);
                flushed.notify_all();
            }
        };
        try {
            const JsonValue doc =
                sweep::parseJson(req.body, "POST /complete");
            const std::string token =
                requireString(doc, "token", "POST /complete");
            boardUpdate(doc);
            const JsonValue *flush = doc.find("flush");
            const JsonValue *worker = doc.find("worker");
            if (flush != nullptr && flush->isBool() && flush->boolean &&
                worker != nullptr && worker->isString())
                flushWorker = worker->text;
            owe(true);
            const JsonValue *results = doc.find("results");
            if (results == nullptr || !results->isArray())
                configError(
                    "POST /complete: 'results' must be an array");
            for (const JsonValue &entry : results->items) {
                JobResult r =
                    JobResult::fromJson(entry, "POST /complete");
                const auto it = indexByHash.find(r.hash);
                if (it == indexByHash.end()) {
                    ++unknown;
                    continue;
                }
                const CompleteOutcome outcome =
                    table.complete(token, it->second);
                if (outcome != CompleteOutcome::Accepted) {
                    ++duplicates;
                    continue;
                }
                // Fabric provenance: how contested was this job's
                // lease before this result landed?
                r.leaseExpiries = table.jobExpiries(it->second);
                const std::uint64_t grants =
                    table.jobGrants(it->second);
                r.reLeases = grants > 0 ? grants - 1 : 0;
                session.record(std::move(r), *pending[it->second]);
                ++accepted;
            }
        } catch (const FatalError &e) {
            owe(false);
            return jsonResponse(
                400, std::string("{\"error\":\"") +
                         obs::jsonEscape(e.what()) + "\"}");
        }
        const bool done = table.allComplete();
        owe(done);
        std::string body =
            "{\"accepted\":" + std::to_string(accepted) +
            ",\"duplicates\":" + std::to_string(duplicates) +
            ",\"unknown\":" + std::to_string(unknown) + ",\"done\":";
        body += done ? "true" : "false";
        body += "}";
        return jsonResponse(200, body);
    });

    server.route("POST", "/spans", [&](const obs::HttpRequest &req) {
        std::string worker;
        bool final = false;
        std::size_t acceptedSpans = 0;
        try {
            acceptedSpans = traceStore.ingestBatch(
                req.body, obs::wallClockStartUnixSeconds(), &worker,
                &final);
        } catch (const FatalError &e) {
            return jsonResponse(
                400, std::string("{\"error\":\"") +
                         obs::jsonEscape(e.what()) + "\"}");
        }
        fleet.heartbeat(worker);
        if (final) {
            std::lock_guard<std::mutex> lock(mu);
            owedFlush.erase(worker);
            flushed.notify_all();
        }
        return jsonResponse(
            200, "{\"accepted\":" + std::to_string(acceptedSpans) +
                     ",\"dropped\":" +
                     std::to_string(traceStore.dropped()) + "}");
    });

    server.start(opts.port, opts.bindAddress);
    inform("fabric: coordinating '", plan.name(), "' (",
           pending.size(), " jobs) on ", opts.bindAddress, ":",
           server.port(), " — lease ttl ", opts.leaseTtlSeconds, " s");
    if (opts.onServerStart)
        opts.onServerStart(server.port());

    // The listener thread does all the work; this thread just waits
    // for the fleet to drain the queue (or for a shutdown signal),
    // sweeping for gone-quiet workers about once a second.
    int ticks = 0;
    const auto sweepForSuspects = [&] {
        for (const std::string &w : fleet.sweepSuspects(suspectAfter)) {
            ++out.suspectEvents;
            IRTHERM_EVENT("worker.suspect", {"worker", w},
                          {"threshold_s", suspectAfter});
            warn("fabric: worker '", w, "' silent past ",
                 suspectAfter, " s — marking suspect");
        }
    };
    while (!table.allComplete() && !shutdownRequested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (++ticks % 50 == 0)
            sweepForSuspects();
    }
    sweepForSuspects();
    {
        // A worker told "done" ships its last spans (its own done
        // instant among them) right after the reply; keep listening
        // for them, for at most 2 s in case it died in between.
        std::unique_lock<std::mutex> lock(mu);
        flushed.wait_for(lock, std::chrono::seconds(2),
                         [&] { return owedFlush.empty(); });
    }

    // Stop accepting before finishing: no /complete can race the
    // reports below.
    server.stop();
    out.requestsShed = server.shedCount();
    if (shutdownRequested() && !table.allComplete())
        inform("fabric: shutdown requested; drained with ",
               table.remaining(),
               " jobs unfinished (journal flushed; resume to "
               "continue)");

    out.sweep = session.finish();
    out.workersSeen = table.workersSeen();
    out.leasesGranted = table.leasesGranted();
    out.leasesExpired = table.leasesExpired();
    out.duplicateCompletes = table.duplicateCompletes();
    out.spansMerged = traceStore.received();
    out.spansDropped = traceStore.dropped();

    if (!opts.fleetTraceOut.empty()) {
        std::ofstream trace(opts.fleetTraceOut);
        if (!trace)
            fatal("fabric: cannot write ", opts.fleetTraceOut);
        trace << traceStore.mergedTraceJson(
            obs::SpanRecorder::global(), traceId);
        inform("fabric: fleet trace (", out.spansMerged,
               " worker spans, trace ", traceId, ") -> ",
               opts.fleetTraceOut);
    }

    IRTHERM_EVENT("fabric.coordinate.done", {"plan", plan.name()},
                  {"executed", out.sweep.executed}, {"ok", out.sweep.ok},
                  {"failed", out.sweep.failed},
                  {"workers", out.workersSeen},
                  {"leases", out.leasesGranted},
                  {"expired", out.leasesExpired},
                  {"duplicates", out.duplicateCompletes},
                  {"shed", out.requestsShed});
    batchSpan.attr("executed", out.sweep.executed)
        .attr("workers", out.workersSeen)
        .attr("leases_expired", out.leasesExpired);
    return out;
}

} // namespace irtherm::fabric
