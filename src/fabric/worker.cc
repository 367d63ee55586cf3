#include "fabric/worker.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "base/shutdown.hh"
#include "fabric/fleet.hh"
#include "fabric/http_client.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_clock.hh"
#include "obs/trace_context.hh"
#include "sweep/json.hh"
#include "sweep/result_store.hh"
#include "sweep/scenario.hh"

namespace irtherm::fabric
{

namespace
{

using sweep::JobResult;
using sweep::JobStatus;
using sweep::JsonValue;
using sweep::ScenarioSpec;

void
sleepSeconds(double s)
{
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, s)));
}

/** One leased batch as decoded off the wire. */
struct Grant
{
    std::string token;
    std::string trace; ///< propagated context, "" when absent
    double ttlSeconds = 0.0;
    bool done = false;
    std::vector<ScenarioSpec> jobs;
};

Grant
parseGrant(const std::string &body)
{
    const JsonValue doc = sweep::parseJson(body, "lease reply");
    Grant g;
    if (const JsonValue *v = doc.find("token"); v && v->isString())
        g.token = v->text;
    if (const JsonValue *v = doc.find("trace"); v && v->isString())
        g.trace = v->text;
    if (const JsonValue *v = doc.find("ttl_s"); v && v->isNumber())
        g.ttlSeconds = v->number;
    if (const JsonValue *v = doc.find("done"))
        g.done = v->isBool() && v->boolean;
    const JsonValue *jobs = doc.find("jobs");
    if (jobs == nullptr || !jobs->isArray())
        configError("lease reply: 'jobs' must be an array");
    for (const JsonValue &entry : jobs->items) {
        const JsonValue *settings = entry.find("settings");
        if (settings == nullptr || !settings->isObject())
            configError("lease reply: job without settings object");
        ScenarioSpec spec;
        for (const auto &[key, value] : settings->members)
            spec.set(key,
                     sweep::scalarToString(value, "lease reply"));
        g.jobs.push_back(std::move(spec));
    }
    return g;
}

} // namespace

WorkerSummary
runWorker(const WorkerOptions &opts)
{
    WorkerSummary sum;
    const std::string name =
        opts.name.empty() ? "worker-" + std::to_string(::getpid())
                          : opts.name;
    obs::SpanRecorder::setThreadLabel(name);
    obs::ScopedSpan span("fabric.worker");
    span.attr("name", name);
    auto &reg = obs::MetricsRegistry::global();

    sweep::JobExecutor executor(opts.exec);

    // Distributed trace state. adopted becomes valid on the first
    // grant (either the coordinator's context or, when the grant's
    // context is malformed/absent, a locally minted degraded trace)
    // and the wire form rides every subsequent request as the
    // X-Irtherm-Trace header.
    obs::TraceContext adopted;
    std::string wireCtx;

    const auto post = [&](const std::string &path,
                          const std::string &body) {
        std::vector<std::pair<std::string, std::string>> headers;
        if (!wireCtx.empty())
            headers.emplace_back(obs::kTraceHeaderName, wireCtx);
        return httpRequest(opts.host, opts.port, "POST", path, body,
                           10.0, headers);
    };

    // Cumulative totals piggybacked on renew/complete bodies.
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t impulseHits = 0;
    std::uint64_t warmStarts = 0;
    double cpuTotal = 0.0;
    const auto metricsJson = [&] {
        WorkerMetricsSnapshot s;
        s.executed = sum.executed;
        s.ok = sum.ok;
        s.failed = sum.failed;
        s.timedOut = sum.timedOut;
        s.hung = sum.hung;
        s.leases = sum.leases;
        s.renewals = sum.renewals;
        s.retries = retries;
        s.fallbacks = fallbacks;
        s.impulseHits = impulseHits;
        s.warmStarts = warmStarts;
        s.spansShipped = sum.spansShipped;
        s.spansDropped =
            sum.spansDropped + obs::SpanRecorder::global().dropped();
        s.cpuSeconds = cpuTotal;
        return s.toJson();
    };

    // Ship the records sealed since the last flush to POST /spans,
    // in batches of at most kShipBatch. The tail and the new
    // watermark are read under one lock, so a record sealed
    // concurrently (another thread of an in-process fleet, or an
    // abandoned hung job) ships exactly once. A failed POST costs
    // observability, never the job. The last batch of the @p final
    // flush says so: a coordinator that told this worker the sweep
    // is done holds its listener open until then.
    std::uint64_t shippedWatermark = 0;
    const auto shipSpans = [&](bool final) {
        constexpr std::size_t kShipBatch = 1024;
        auto &rec = obs::SpanRecorder::global();
        if (!rec.enabled() || !adopted.valid())
            return;
        std::uint64_t lost = 0;
        const std::vector<obs::SpanRecord> tail =
            rec.snapshotSince(shippedWatermark, &lost);
        // Anything the ring already overwrote is gone.
        sum.spansDropped += lost;
        const std::string head =
            "{\"worker\":\"" + obs::jsonEscape(name) +
            "\",\"trace\":\"" + adopted.traceId +
            "\",\"lease_span\":\"" + obs::spanIdHex(adopted.spanId) +
            "\",\"wall_epoch_unix_s\":" +
            obs::jsonNumber(obs::wallClockStartUnixSeconds()) +
            ",\"dropped\":" + std::to_string(rec.dropped());
        for (std::size_t i = 0; i < tail.size(); i += kShipBatch) {
            const std::size_t end =
                std::min(tail.size(), i + kShipBatch);
            std::string body = head;
            if (final && end == tail.size())
                body += ",\"final\":true";
            body += ",\"spans\":[";
            for (std::size_t j = i; j < end; ++j) {
                const obs::SpanRecord &s = tail[j];
                if (j != i)
                    body += ',';
                body += "{\"id\":" + std::to_string(s.id) +
                        ",\"parent\":" + std::to_string(s.parentId) +
                        ",\"tid\":" + std::to_string(s.threadIndex) +
                        ",\"depth\":" + std::to_string(s.depth) +
                        ",\"name\":\"" + obs::jsonEscape(s.name) +
                        "\",\"start_s\":" +
                        obs::jsonNumber(s.startSeconds) +
                        ",\"dur_s\":" +
                        obs::jsonNumber(s.durationSeconds);
                if (s.instant)
                    body += ",\"instant\":true";
                if (!s.attrs.empty())
                    body += ",\"attrs\":{" + obs::fieldsJson(s.attrs) + "}";
                body += "}";
            }
            body += "]}";
            try {
                const HttpReply r = post("/spans", body);
                if (r.status == 200)
                    sum.spansShipped += end - i;
                else
                    sum.spansDropped += end - i;
            } catch (const FatalError &) {
                sum.spansDropped += tail.size() - i;
                return;
            }
        }
    };

    inform("fabric: worker '", name, "' connecting to ", opts.host,
           ":", opts.port);

    bool connected = false;
    const double connectStart = obs::monotonicSeconds();
    bool done = false;
    while (!done && !shutdownRequested()) {
        HttpReply reply;
        try {
            reply = post("/lease",
                         "{\"worker\":\"" + obs::jsonEscape(name) +
                             "\",\"max_jobs\":" +
                             std::to_string(opts.maxLeaseJobs) + "}");
        } catch (const FatalError &e) {
            if (connected) {
                // The coordinator finished (or crashed) between our
                // polls; either way there is nothing left to lease.
                inform("fabric: worker '", name,
                       "' lost the coordinator (", e.what(),
                       "); exiting");
                break;
            }
            if (obs::monotonicSeconds() - connectStart >
                opts.connectRetrySeconds)
                throw;
            sleepSeconds(opts.pollSeconds);
            continue;
        }
        if (reply.status == 429) {
            ++sum.rejected;
            reg.counter("fabric.worker.rejected").add();
            const std::string after = reply.header("Retry-After");
            sleepSeconds(after.empty() ? 1.0
                                       : std::atof(after.c_str()));
            continue;
        }
        if (reply.status != 200)
            ioError("fabric: POST /lease returned ", reply.status);
        connected = true;

        const Grant grant = parseGrant(reply.body);

        // Adopt the propagated trace context. Malformed or absent
        // degrades to a locally minted trace id — never to failure.
        const obs::TraceContext granted =
            obs::parseTraceContext(grant.trace);
        if (granted.valid()) {
            adopted = granted;
        } else if (!adopted.valid()) {
            adopted.traceId = obs::mintTraceId();
            adopted.spanId = 0;
            inform("fabric: worker '", name,
                   "' got no usable trace context; degrading to "
                   "local trace ",
                   adopted.traceId);
        }
        wireCtx = obs::formatTraceContext(adopted);
        sum.traceId = adopted.traceId;
        obs::setProcessTraceContext(adopted);
        obs::SpanRecorder::global().setEnabled(true);

        if (grant.jobs.empty()) {
            if (grant.done)
                break;
            sleepSeconds(opts.pollSeconds);
            continue;
        }
        ++sum.leases;
        IRTHERM_EVENT("fabric.worker.lease", {"worker", name},
                      {"token", grant.token},
                      {"jobs", grant.jobs.size()});

        if (FaultInjector::global().shouldFire(faultpoint::WorkerDie, name)) {
            // Injected crash: stop renewing with jobs in hand. The
            // lease TTL lapses and the coordinator re-leases them.
            warn("fabric: injected worker.die for '", name, "'");
            sum.died = true;
            break;
        }

        // Execute the batch, renewing at half-TTL so a long job does
        // not silently forfeit the lease.
        std::vector<JobResult> results;
        std::size_t renewalsThisLease = 0;
        double leaseStamp = obs::monotonicSeconds();
        bool leaseLost = false;
        for (const ScenarioSpec &spec : grant.jobs) {
            if (shutdownRequested())
                break;
            if (grant.ttlSeconds > 0.0 &&
                obs::monotonicSeconds() - leaseStamp >
                    grant.ttlSeconds / 2.0) {
                HttpReply r;
                try {
                    r = post("/renew",
                             "{\"token\":\"" +
                                 obs::jsonEscape(grant.token) +
                                 "\",\"worker\":\"" +
                                 obs::jsonEscape(name) +
                                 "\",\"trace\":\"" + wireCtx +
                                 "\",\"metrics\":" + metricsJson() +
                                 "}");
                } catch (const FatalError &) {
                    leaseLost = true;
                    break;
                }
                if (r.status != 200) {
                    // 410: the coordinator forgot us. Post what we
                    // already finished (first-wins makes the overlap
                    // harmless) and drop the rest of the batch.
                    leaseLost = true;
                    break;
                }
                ++renewalsThisLease;
                ++sum.renewals;
                leaseStamp = obs::monotonicSeconds();
            }
            JobResult r = executor.run(spec, false, name);
            r.worker = name;
            r.leaseRenewals = renewalsThisLease;
            ++sum.executed;
            if (r.attempts > 1)
                ++retries;
            if (r.fallbackTier > 0)
                ++fallbacks;
            if (r.impulseCacheHit)
                ++impulseHits;
            if (r.warmStarted)
                ++warmStarts;
            cpuTotal += r.resources.cpuSeconds;
            switch (r.status) {
              case JobStatus::Ok:
                ++sum.ok;
                break;
              case JobStatus::Failed:
                ++sum.failed;
                break;
              case JobStatus::Timeout:
                ++sum.timedOut;
                break;
              case JobStatus::Hung:
                ++sum.hung;
                break;
            }
            results.push_back(std::move(r));
        }
        if (leaseLost)
            IRTHERM_EVENT("fabric.worker.lease_lost",
                          {"worker", name}, {"token", grant.token},
                          {"finished", results.size()});

        if (results.empty())
            continue;
        std::string body = "{\"token\":\"" +
                           obs::jsonEscape(grant.token) +
                           "\",\"worker\":\"" +
                           obs::jsonEscape(name) + "\",\"trace\":\"" +
                           wireCtx +
                           "\",\"metrics\":" + metricsJson() +
                           (obs::SpanRecorder::global().enabled()
                                ? ",\"flush\":true"
                                : "") +
                           ",\"results\":[";
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (i)
                body += ',';
            body += results[i].toJsonLine();
        }
        body += "]}";

        for (int attempt = 0;; ++attempt) {
            HttpReply r;
            try {
                r = post("/complete", body);
            } catch (const FatalError &e) {
                warn("fabric: worker '", name,
                     "' could not report batch (", e.what(), ")");
                done = true;
                break;
            }
            if (r.status == 429) {
                ++sum.rejected;
                const std::string after = r.header("Retry-After");
                sleepSeconds(after.empty()
                                 ? 1.0
                                 : std::atof(after.c_str()));
                continue;
            }
            if (r.status != 200)
                ioError("fabric: POST /complete returned ",
                        r.status);
            const JsonValue doc =
                sweep::parseJson(r.body, "complete reply");
            if (const JsonValue *v = doc.find("duplicates");
                v && v->isNumber())
                sum.duplicates += static_cast<std::size_t>(v->number);
            if (const JsonValue *v = doc.find("done");
                v && v->isBool() && v->boolean)
                done = true;
            // Injected duplicate delivery: re-POST the identical
            // batch once; the coordinator must classify every result
            // as a duplicate and journal nothing new.
            if (attempt == 0 &&
                FaultInjector::global().shouldFire(faultpoint::CompleteDup,
                                                   grant.token)) {
                warn("fabric: injected complete.dup for ",
                     grant.token);
                continue;
            }
            break;
        }
        shipSpans(false);
    }

    IRTHERM_EVENT("fabric.worker.done", {"worker", name},
                  {"executed", sum.executed}, {"ok", sum.ok},
                  {"leases", sum.leases},
                  {"renewals", sum.renewals},
                  {"duplicates", sum.duplicates},
                  {"rejected", sum.rejected}, {"died", sum.died});
    // Final flush, after the done instant so that it reaches the
    // merged trace too (a died worker ships nothing — that is the
    // point of the fault).
    if (!sum.died)
        shipSpans(true);

    span.attr("executed", sum.executed).attr("leases", sum.leases);
    inform("fabric: worker '", name, "' finished: ", sum.executed,
           " executed (", sum.ok, " ok), ", sum.leases, " leases, ",
           sum.renewals, " renewals");
    return sum;
}

} // namespace irtherm::fabric
