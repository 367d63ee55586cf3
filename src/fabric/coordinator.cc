#include "fabric/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
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
#include "sweep/dashboard.hh"
#include "sweep/json.hh"
#include "sweep/report.hh"
#include "sweep/status.hh"

namespace irtherm::fabric
{

namespace
{

using sweep::JobResult;
using sweep::JobStatus;
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
    sweep::SweepSummary &sum = out.sweep;
    sum.outDir = opts.outDir;

    const std::vector<ScenarioSpec> jobs = plan.expand();
    sum.total = jobs.size();
    reg.gauge("sweep.plan.jobs").set(static_cast<double>(sum.total));

    sweep::ResultStoreOptions storeOptions;
    storeOptions.segmentJobs = opts.segmentJobs;
    sweep::ResultStore store(opts.outDir, storeOptions);
    sum.journalPath = store.journalPath();
    if (opts.resume) {
        const std::size_t journaled = store.loadJournal();
        sum.quarantined = store.quarantined();
        sum.quarantinedSegments = store.quarantinedSegments();
        IRTHERM_EVENT("sweep.resume", {"plan", plan.name()},
                      {"journaled", journaled},
                      {"quarantined", sum.quarantined},
                      {"quarantined_segments",
                       sum.quarantinedSegments});
    }

    std::unique_ptr<ResultCache> cache;
    if (!opts.cacheDir.empty())
        cache = std::make_unique<ResultCache>(opts.cacheDir);

    // Queue construction mirrors runSweep exactly: skip journaled
    // hashes, collapse duplicates, answer from the shared cache.
    std::vector<const ScenarioSpec *> pending;
    std::set<std::string> queued;
    const auto attachAxes = [&plan](JobResult &r,
                                    const ScenarioSpec &spec) {
        r.axisValues.clear();
        for (const sweep::SweepAxis &axis : plan.axes()) {
            if (const std::string *v = spec.find(axis.key))
                r.axisValues.emplace_back(axis.key, *v);
        }
    };
    for (const ScenarioSpec &spec : jobs) {
        const std::string hash = spec.hashHex();
        if (store.has(hash)) {
            ++sum.cached;
            reg.counter("sweep.jobs.cached").add();
            continue;
        }
        if (!queued.insert(hash).second) {
            ++sum.duplicates;
            reg.counter("sweep.jobs.duplicate").add();
            continue;
        }
        JobResult cachedResult;
        if (cache && cache->lookup(hash, cachedResult)) {
            attachAxes(cachedResult, spec);
            store.add(cachedResult);
            ++sum.sharedCacheHits;
            reg.counter("sweep.shared_cache.hits").add();
            continue;
        }
        pending.push_back(&spec);
    }

    std::map<std::string, std::size_t> indexByHash;
    for (std::size_t i = 0; i < pending.size(); ++i)
        indexByHash[pending[i]->hashHex()] = i;

    LeaseTable table(pending.size(), opts.leaseTtlSeconds);
    sweep::SweepStatusBoard board;
    board.begin(plan.name(), sum.total, pending.size(), sum.cached,
                0);

    IRTHERM_EVENT("fabric.coordinate.start", {"plan", plan.name()},
                  {"jobs", sum.total}, {"pending", pending.size()},
                  {"cached", sum.cached},
                  {"shared_cache_hits", sum.sharedCacheHits});

    // Handler-shared mutable state. Handlers run on the one listener
    // thread, but the main loop reads the summary too.
    std::mutex mu;

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

    server.route("/status", [&board, &fleetJson] {
        // Splice the fleet board into the status document so the
        // dashboard needs only its existing /status poll.
        std::string body = board.statusJson();
        const std::size_t brace = body.rfind('}');
        if (brace != std::string::npos)
            body.insert(brace, ",\"fleet\":" + fleetJson());
        return jsonResponse(200, body);
    });
    server.route("/metrics", [&reg, &fleet, &table] {
        return obs::HttpResponse{
            200, "text/plain; version=0.0.4; charset=utf-8",
            obs::metricsToPrometheus(reg) +
                fleet.prometheusText(table.workerLeases())};
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
    server.route("/healthz", [] {
        return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                 "ok\n"};
    });
    server.route("/aggregates", [&store] {
        return jsonResponse(200, store.aggregatesJson());
    });
    server.route("/dashboard", [] {
        return obs::HttpResponse{200, "text/html; charset=utf-8",
                                 sweep::dashboardHtml()};
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
        board.setWorkers(table.workersSeen());
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
        try {
            const JsonValue doc =
                sweep::parseJson(req.body, "POST /complete");
            const std::string token =
                requireString(doc, "token", "POST /complete");
            boardUpdate(doc);
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
                const ScenarioSpec &spec = *pending[it->second];
                attachAxes(r, spec);
                // Fabric provenance: how contested was this job's
                // lease before this result landed?
                r.leaseExpiries = table.jobExpiries(it->second);
                const std::uint64_t grants =
                    table.jobGrants(it->second);
                r.reLeases = grants > 0 ? grants - 1 : 0;
                store.add(r);
                if (cache)
                    cache->store(r);
                board.jobFinished(r.status);
                reg.counter("sweep.jobs.executed").add();
                ++accepted;
                std::lock_guard<std::mutex> lock(mu);
                ++sum.executed;
                switch (r.status) {
                  case JobStatus::Ok:
                    ++sum.ok;
                    reg.counter("sweep.jobs.ok").add();
                    break;
                  case JobStatus::Failed:
                    ++sum.failed;
                    reg.counter("sweep.jobs.failed").add();
                    warn("fabric: job '", r.name,
                         "' failed on worker '", r.worker,
                         "': ", r.error);
                    break;
                  case JobStatus::Timeout:
                    ++sum.timedOut;
                    reg.counter("sweep.jobs.timeout").add();
                    break;
                  case JobStatus::Hung:
                    ++sum.hung;
                    reg.counter("resilience.jobs.hung").add();
                    break;
                }
                if (r.warmStarted)
                    ++sum.warmStarted;
                if (r.impulseCacheHit)
                    ++sum.impulseCacheHits;
                if (r.attempts > 1)
                    ++sum.retried;
                if (r.fallbackTier > 0)
                    ++sum.fallbacks;
            }
        } catch (const FatalError &e) {
            return jsonResponse(
                400, std::string("{\"error\":\"") +
                         obs::jsonEscape(e.what()) + "\"}");
        }
        std::string body =
            "{\"accepted\":" + std::to_string(accepted) +
            ",\"duplicates\":" + std::to_string(duplicates) +
            ",\"unknown\":" + std::to_string(unknown) + ",\"done\":";
        body += table.allComplete() ? "true" : "false";
        body += "}";
        return jsonResponse(200, body);
    });

    server.route("POST", "/spans", [&](const obs::HttpRequest &req) {
        std::string worker;
        std::size_t acceptedSpans = 0;
        try {
            acceptedSpans = traceStore.ingestBatch(
                req.body, obs::wallClockStartUnixSeconds(), &worker);
        } catch (const FatalError &e) {
            return jsonResponse(
                400, std::string("{\"error\":\"") +
                         obs::jsonEscape(e.what()) + "\"}");
        }
        fleet.heartbeat(worker);
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

    // Stop accepting before finalizing: no /complete can race the
    // seal-and-checkpoint below.
    server.stop();
    out.requestsShed = server.shedCount();
    if (shutdownRequested() && !table.allComplete())
        inform("fabric: shutdown requested; drained with ",
               table.remaining(),
               " jobs unfinished (journal sealed, checkpoint "
               "written; resume to continue)");

    store.finalize();

    if (opts.writeReports) {
        const std::filesystem::path dir(opts.outDir);
        sum.csvPath = (dir / "report.csv").string();
        sum.jsonPath = (dir / "report.json").string();
        std::ofstream csv(sum.csvPath);
        if (!csv)
            fatal("fabric: cannot write ", sum.csvPath);
        writeSweepCsv(csv, plan, jobs, store);
        std::ofstream json(sum.jsonPath);
        if (!json)
            fatal("fabric: cannot write ", sum.jsonPath);
        writeSweepJson(json, plan, jobs, store, sum);
    }

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
                  {"executed", sum.executed}, {"ok", sum.ok},
                  {"failed", sum.failed},
                  {"workers", out.workersSeen},
                  {"leases", out.leasesGranted},
                  {"expired", out.leasesExpired},
                  {"duplicates", out.duplicateCompletes},
                  {"shed", out.requestsShed});
    batchSpan.attr("executed", sum.executed)
        .attr("workers", out.workersSeen)
        .attr("leases_expired", out.leasesExpired);
    return out;
}

} // namespace irtherm::fabric
