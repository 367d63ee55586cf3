#include "sweep/session.hh"

#include <filesystem>
#include <fstream>
#include <set>

#include "base/logging.hh"
#include "obs/export.hh"
#include "obs/http_server.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sweep/report.hh"

namespace irtherm::sweep
{

SweepSession::SweepSession(const SweepPlan &plan_,
                           const SweepOptions &opts_)
    : plan(plan_), opts(opts_), jobs(plan_.expand()),
      store(opts_.outDir)
{
    auto &reg = obs::MetricsRegistry::global();
    sum.outDir = opts.outDir;
    sum.total = jobs.size();
    sum.journalPath = store.journalPath();
    reg.gauge("sweep.plan.jobs").set(static_cast<double>(sum.total));

    if (opts.resume) {
        [[maybe_unused]] const std::size_t journaled = store.loadJournal();
        sum.quarantined = store.quarantined();
        IRTHERM_EVENT("sweep.resume", {"plan", plan.name()},
                      {"journaled", journaled},
                      {"quarantined", sum.quarantined});
    }

    std::set<std::string> queued;
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
        if (opts.sharedCacheLookup &&
            opts.sharedCacheLookup(hash, cachedResult)) {
            // Content-addressed hit: the stored result came from a
            // prior run of this exact scenario, so journal it here
            // verbatim — except the axis assignments, which belong
            // to the plan being run, not the plan that produced it.
            attachAxes(cachedResult, spec);
            store.add(cachedResult);
            ++sum.sharedCacheHits;
            reg.counter("sweep.shared_cache.hits").add();
            continue;
        }
        queue.push_back(&spec);
    }
    status.begin(plan.name(), sum.total, queue.size(), sum.cached, 0);
}

void
SweepSession::attachAxes(JobResult &r, const ScenarioSpec &spec) const
{
    // Journal the axis assignment with the result so the aggregates
    // can group by axis value without the plan.
    r.axisValues.clear();
    for (const SweepAxis &axis : plan.axes()) {
        if (const std::string *v = spec.find(axis.key))
            r.axisValues.emplace_back(axis.key, *v);
    }
}

std::size_t
SweepSession::executed() const
{
    std::lock_guard<std::mutex> lock(mu);
    return sum.executed;
}

void
SweepSession::record(JobResult r, const ScenarioSpec &spec)
{
    auto &reg = obs::MetricsRegistry::global();
    static obs::Counter &executedJobs = reg.counter("sweep.jobs.executed");
    static obs::Counter &okJobs = reg.counter("sweep.jobs.ok");
    static obs::Counter &warmHits = reg.counter("sweep.warm_start.hits");
    attachAxes(r, spec);
    store.add(r);
    if (r.status == JobStatus::Ok && opts.sharedCacheStore)
        opts.sharedCacheStore(r);
    status.jobFinished(r.status);
    executedJobs.add();
    IRTHERM_EVENT("sweep.job.done", {"name", r.name}, {"hash", r.hash},
                  {"status", jobStatusName(r.status)},
                  {"peak_c", r.peakCelsius}, {"wall_s", r.wallSeconds});
    const auto where = [&r] {
        return r.worker.empty() ? "" : " on worker '" + r.worker + "'";
    };

    std::lock_guard<std::mutex> lock(mu);
    ++sum.executed;
    switch (r.status) {
      case JobStatus::Ok:
        ++sum.ok;
        okJobs.add();
        break;
      case JobStatus::Failed:
        ++sum.failed;
        reg.counter("sweep.jobs.failed").add();
        warn("sweep: job '", r.name, "' failed", where(), ": ", r.error);
        break;
      case JobStatus::Timeout:
        ++sum.timedOut;
        reg.counter("sweep.jobs.timeout").add();
        warn("sweep: job '", r.name, "' timed out", where(), " after ",
             r.wallSeconds, " s");
        break;
      case JobStatus::Hung:
        ++sum.hung;
        reg.counter("resilience.jobs.hung").add();
        warn("sweep: job '", r.name, "' hung", where(),
             "; thread abandoned after ", r.wallSeconds, " s");
        break;
    }
    if (r.warmStarted) {
        ++sum.warmStarted;
        warmHits.add();
    }
    if (r.impulseCacheHit)
        ++sum.impulseCacheHits;
    if (r.attempts > 1)
        ++sum.retried;
    if (r.fallbackTier > 0)
        ++sum.fallbacks;
}

void
SweepSession::route(obs::HttpServer &server,
                    std::function<std::string()> statusMembers,
                    std::function<std::string()> metricsText)
{
    // Handlers run on the listener thread and only read shared state
    // through the board's, the store's and the registry's own locks.
    server.route("/status", [this, statusMembers] {
        std::string body = status.statusJson();
        const std::size_t brace = body.rfind('}');
        if (statusMembers && brace != std::string::npos) {
            std::string members = ",";
            members += statusMembers();
            body.insert(brace, members);
        }
        return obs::HttpResponse{200, "application/json", body + "\n"};
    });
    server.route("/metrics", [metricsText] {
        std::string body =
            obs::metricsToPrometheus(obs::MetricsRegistry::global());
        if (metricsText)
            body += metricsText();
        return obs::HttpResponse{
            200, "text/plain; version=0.0.4; charset=utf-8", body};
    });
    server.route("/healthz", [] {
        return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                 "ok\n"};
    });
    // Continuous aggregates: O(1) in sweep size by construction (the
    // store folds each job in as it lands).
    server.route("/aggregates", [this] {
        return obs::HttpResponse{200, "application/json",
                                 store.aggregatesJson() + "\n"};
    });
}

SweepSummary
SweepSession::finish()
{
    SweepSummary out;
    {
        std::lock_guard<std::mutex> lock(mu);
        out = sum;
    }
    if (opts.writeReports) {
        obs::ScopedSpan span("sweep.reports");
        const std::filesystem::path dir(opts.outDir);
        out.csvPath = (dir / "report.csv").string();
        out.jsonPath = (dir / "report.json").string();
        std::ofstream csv(out.csvPath);
        if (!csv)
            fatal("sweep: cannot write ", out.csvPath);
        writeSweepCsv(csv, plan, jobs, store);
        std::ofstream json(out.jsonPath);
        if (!json)
            fatal("sweep: cannot write ", out.jsonPath);
        writeSweepJson(json, plan, jobs, store, out);
    }
    return out;
}

} // namespace irtherm::sweep
