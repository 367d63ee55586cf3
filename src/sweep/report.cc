#include "sweep/report.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>

#include "base/errors.hh"
#include "base/str.hh"
#include "base/table.hh"
#include "obs/export.hh"
#include "sweep/json.hh"

namespace irtherm::sweep
{

namespace
{

/** Result row cells shared by the CSV and Markdown renderers. */
std::vector<std::string>
summaryCells(const JobResult &r)
{
    if (r.status != JobStatus::Ok) {
        return {jobStatusName(r.status), "-", "-", "-", "-",
                r.warmStarted ? "1" : "0",
                r.impulseCacheHit ? "1" : "0",
                std::to_string(r.attempts),
                std::to_string(r.fallbackTier),
                errorClassName(r.errorClass),
                formatFixed(r.wallSeconds, 3),
                formatFixed(r.resources.cpuSeconds, 3),
                std::to_string(r.resources.peakRssDeltaKb),
                r.error};
    }
    return {jobStatusName(r.status),
            r.hottestUnit,
            formatFixed(r.peakCelsius, 2),
            formatFixed(r.gradientKelvin, 2),
            std::to_string(r.cgIterations),
            r.warmStarted ? "1" : "0",
            r.impulseCacheHit ? "1" : "0",
            std::to_string(r.attempts),
            std::to_string(r.fallbackTier),
            errorClassName(r.errorClass),
            formatFixed(r.wallSeconds, 3),
            formatFixed(r.resources.cpuSeconds, 3),
            std::to_string(r.resources.peakRssDeltaKb),
            r.error};
}

std::string
pipeSafe(std::string s)
{
    std::replace(s.begin(), s.end(), '|', '/');
    return s;
}

} // namespace

void
writeSweepCsv(std::ostream &os, const SweepPlan &plan,
              const std::vector<ScenarioSpec> &jobs,
              const ResultStore &store)
{
    // Provenance columns appear only when a result carries them, so
    // local-run reports keep their pre-fabric shape.
    std::vector<const JobResult *> results;
    results.reserve(jobs.size());
    bool anyWorker = false;
    for (const ScenarioSpec &spec : jobs) {
        const JobResult *r =
            results.emplace_back(store.findResult(spec.hashHex()));
        anyWorker = anyWorker || (r != nullptr && !r->worker.empty());
    }

    std::vector<std::string> header{"name", "hash"};
    for (const SweepAxis &axis : plan.axes())
        header.push_back(axis.key);
    for (const char *col :
         {"status", "hottest", "peak_c", "gradient_k",
          "cg_iterations", "warm_start", "impulse_hit", "attempts",
          "fallback_tier",
          "error_class", "wall_s", "cpu_s", "rss_delta_kb", "error"})
        header.emplace_back(col);
    if (anyWorker) {
        header.emplace_back("worker");
        header.emplace_back("lease_renewals");
        header.emplace_back("lease_expiries");
        header.emplace_back("re_leases");
    }

    TextTable table(std::move(header));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ScenarioSpec &spec = jobs[i];
        std::vector<std::string> row{spec.displayName(),
                                     spec.hashHex()};
        for (const SweepAxis &axis : plan.axes()) {
            const std::string *v = spec.find(axis.key);
            row.push_back(v != nullptr ? *v : "");
        }
        if (const JobResult *r = results[i]) {
            for (std::string &cell : summaryCells(*r))
                row.push_back(std::move(cell));
            if (anyWorker) {
                row.push_back(r->worker);
                row.push_back(std::to_string(r->leaseRenewals));
                row.push_back(std::to_string(r->leaseExpiries));
                row.push_back(std::to_string(r->reLeases));
            }
        } else {
            // Interrupted before this job ran (stopAfter / kill).
            row.insert(row.end(),
                       {"pending", "-", "-", "-", "-", "-", "-", "-",
                        "-", "-", "-", "-", "-", ""});
            if (anyWorker)
                row.insert(row.end(), {"", "0", "0", "0"});
        }
        table.addRow(std::move(row));
    }
    table.printCsv(os);
}

void
writeSweepJson(std::ostream &os, const SweepPlan &plan,
               const std::vector<ScenarioSpec> &jobs,
               const ResultStore &store, const SweepSummary &summary)
{
    os << "{\n";
    os << "  \"schema\": \"irtherm.sweep.v1\",\n";
    os << "  \"plan\": \"" << obs::jsonEscape(plan.name()) << "\",\n";
    os << "  \"total\": " << summary.total << ",\n";
    os << "  \"executed\": " << summary.executed << ",\n";
    os << "  \"ok\": " << summary.ok << ",\n";
    os << "  \"failed\": " << summary.failed << ",\n";
    os << "  \"timeout\": " << summary.timedOut << ",\n";
    os << "  \"hung\": " << summary.hung << ",\n";
    os << "  \"cached\": " << summary.cached << ",\n";
    os << "  \"duplicates\": " << summary.duplicates << ",\n";
    os << "  \"warm_started\": " << summary.warmStarted << ",\n";
    os << "  \"impulse_cache_hits\": " << summary.impulseCacheHits
       << ",\n";
    os << "  \"resilience\": {\"retried\": " << summary.retried
       << ", \"fallbacks\": " << summary.fallbacks
       << ", \"quarantined\": " << summary.quarantined << "},\n";
    os << "  \"axes\": {";
    bool firstAxis = true;
    for (const SweepAxis &axis : plan.axes()) {
        if (!firstAxis)
            os << ",";
        firstAxis = false;
        os << "\n    \"" << obs::jsonEscape(axis.key) << "\": [";
        for (std::size_t i = 0; i < axis.values.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << "\"" << obs::jsonEscape(axis.values[i]) << "\"";
        }
        os << "]";
    }
    os << (firstAxis ? "},\n" : "\n  },\n");
    os << "  \"results\": [";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i > 0)
            os << ",";
        os << "\n    ";
        const ScenarioSpec &spec = jobs[i];
        const JobResult *r = store.findResult(spec.hashHex());
        if (r != nullptr) {
            os << r->toJsonLine();
        } else {
            os << "{\"hash\":\"" << obs::jsonEscape(spec.hashHex())
               << "\",\"name\":\""
               << obs::jsonEscape(spec.displayName())
               << "\",\"status\":\"pending\"}";
        }
    }
    os << (jobs.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
}

std::string
renderMarkdownSummary(const std::vector<JobResult> &results,
                      const std::string &title)
{
    std::size_t ok = 0, failed = 0, timedOut = 0, hung = 0;
    std::size_t retried = 0, fallbacks = 0;
    for (const JobResult &r : results) {
        switch (r.status) {
          case JobStatus::Ok:
            ++ok;
            break;
          case JobStatus::Failed:
            ++failed;
            break;
          case JobStatus::Timeout:
            ++timedOut;
            break;
          case JobStatus::Hung:
            ++hung;
            break;
        }
        if (r.attempts > 1)
            ++retried;
        if (r.fallbackTier > 0)
            ++fallbacks;
    }

    // Worker provenance columns appear only when some result carries
    // them — a journal from a pre-fabric (or purely local) run renders
    // exactly as before.
    bool anyWorker = false;
    for (const JobResult &r : results) {
        if (!r.worker.empty()) {
            anyWorker = true;
            break;
        }
    }

    std::string md;
    md += "# Sweep summary — " + title + "\n\n";
    md += std::to_string(results.size()) + " scenario(s): " +
          std::to_string(ok) + " ok, " + std::to_string(failed) +
          " failed, " + std::to_string(timedOut) + " timed out, " +
          std::to_string(hung) + " hung.\n\n";
    if (retried > 0 || fallbacks > 0) {
        md += "Resilience: " + std::to_string(retried) +
              " job(s) retried, " + std::to_string(fallbacks) +
              " used a solver fallback.\n\n";
    }
    md += "| scenario | status | hottest unit | peak (C) | dT (K) |"
          " CG iters | warm | impulse | wall (s) | cpu (s) |";
    md += anyWorker ? " worker | renewals |\n" : "\n";
    md += "|---|---|---|---:|---:|---:|---|---|---:|---:|";
    md += anyWorker ? "---|---:|\n" : "\n";
    for (const JobResult &r : results) {
        // Pipes inside names would break the table layout.
        std::string name = r.name;
        std::replace(name.begin(), name.end(), '|', '/');
        md += "| " + name + " | " + jobStatusName(r.status) + " | ";
        if (r.status == JobStatus::Ok) {
            md += r.hottestUnit + " | " +
                  formatFixed(r.peakCelsius, 2) + " | " +
                  formatFixed(r.gradientKelvin, 2) + " | " +
                  std::to_string(r.cgIterations) + " | " +
                  (r.warmStarted ? "yes" : "no") + " | " +
                  (r.impulseCacheHit ? "yes" : "no") + " | " +
                  formatFixed(r.wallSeconds, 3) + " | " +
                  formatFixed(r.resources.cpuSeconds, 3) + " |";
        } else {
            std::string err = r.error;
            std::replace(err.begin(), err.end(), '|', '/');
            std::replace(err.begin(), err.end(), '\n', ' ');
            if (err.size() > 80)
                err = err.substr(0, 77) + "...";
            md += err + " | - | - | - | - | - | " +
                  formatFixed(r.wallSeconds, 3) + " | " +
                  formatFixed(r.resources.cpuSeconds, 3) + " |";
        }
        if (anyWorker) {
            md += " " + pipeSafe(r.worker.empty() ? "-" : r.worker) +
                  " | " + std::to_string(r.leaseRenewals) + " |";
        }
        md += "\n";
    }

    if (anyWorker) {
        // Fleet rollup: who did how much, how often leases had to be
        // kept alive mid-batch, and how contested the jobs were
        // (expiries re-queued them, re-leases handed them out again).
        struct WorkerCell
        {
            std::size_t jobs = 0;
            std::size_t renewals = 0;
            std::size_t expiries = 0;
            std::size_t reLeases = 0;
        };
        std::map<std::string, WorkerCell> perWorker;
        for (const JobResult &r : results) {
            WorkerCell &cell =
                perWorker[r.worker.empty() ? "(local)" : r.worker];
            ++cell.jobs;
            cell.renewals += r.leaseRenewals;
            cell.expiries += r.leaseExpiries;
            cell.reLeases += r.reLeases;
        }
        md += "\n## Workers\n\n";
        md += "| worker | jobs | lease renewals | lease expiries |"
              " re-leases |\n";
        md += "|---|---:|---:|---:|---:|\n";
        for (const auto &[worker, cell] : perWorker) {
            md += "| " + pipeSafe(worker) + " | " +
                  std::to_string(cell.jobs) + " | " +
                  std::to_string(cell.renewals) + " | " +
                  std::to_string(cell.expiries) + " | " +
                  std::to_string(cell.reLeases) + " |\n";
        }
    }
    return md;
}

std::string
renderTopJobsMarkdown(const std::vector<JobResult> &results,
                      std::size_t n)
{
    std::vector<const JobResult *> order;
    order.reserve(results.size());
    for (const JobResult &r : results)
        order.push_back(&r);
    // CPU descending; wall then name break ties so reruns over the
    // same journal list the same order.
    std::sort(order.begin(), order.end(),
              [](const JobResult *a, const JobResult *b) {
                  if (a->resources.cpuSeconds !=
                      b->resources.cpuSeconds)
                      return a->resources.cpuSeconds >
                             b->resources.cpuSeconds;
                  if (a->wallSeconds != b->wallSeconds)
                      return a->wallSeconds > b->wallSeconds;
                  return a->name < b->name;
              });
    if (order.size() > n)
        order.resize(n);

    // Lease-contest columns appear only when some listed job carries
    // fabric provenance, matching the summary table's behavior.
    bool anyContest = false;
    for (const JobResult *r : order) {
        if (r->leaseExpiries > 0 || r->reLeases > 0) {
            anyContest = true;
            break;
        }
    }

    std::string md;
    md += "## Top " + std::to_string(order.size()) +
          " jobs by CPU time\n\n";
    md += "| scenario | status | cpu (s) | wall (s) | rss +kB |"
          " solver iters | retries | fallbacks |";
    md += anyContest ? " lease expiries | re-leases |\n" : "\n";
    md += "|---|---|---:|---:|---:|---:|---:|---:|";
    md += anyContest ? "---:|---:|\n" : "\n";
    for (const JobResult *r : order) {
        std::string name = r->name;
        std::replace(name.begin(), name.end(), '|', '/');
        md += "| " + name + " | " + jobStatusName(r->status) + " | " +
              formatFixed(r->resources.cpuSeconds, 3) + " | " +
              formatFixed(r->wallSeconds, 3) + " | " +
              std::to_string(r->resources.peakRssDeltaKb) + " | " +
              std::to_string(r->resources.solverIterations) + " | " +
              std::to_string(r->resources.retries) + " | " +
              std::to_string(r->resources.fallbackEscalations) +
              " |";
        if (anyContest) {
            md += " " + std::to_string(r->leaseExpiries) + " | " +
                  std::to_string(r->reLeases) + " |";
        }
        md += "\n";
    }
    return md;
}

namespace
{

/** Required numeric member of an aggregates sub-object. */
double
aggNumber(const JsonValue &obj, const char *key)
{
    const JsonValue &v = obj.at(key);
    if (!v.isNumber())
        configError("aggregates: '", key, "' is not a number");
    return v.number;
}

std::string
aggCount(const JsonValue &obj, const char *key)
{
    return std::to_string(
        static_cast<std::uint64_t>(aggNumber(obj, key)));
}

/** "| min | mean | max |" cells for a stat block, "-" when empty. */
std::string
statCells(const JsonValue &stat)
{
    if (aggNumber(stat, "count") == 0.0)
        return "- | - | -";
    return formatFixed(aggNumber(stat, "min"), 2) + " | " +
           formatFixed(aggNumber(stat, "mean"), 2) + " | " +
           formatFixed(aggNumber(stat, "max"), 2);
}

} // namespace

std::string
renderAggregatesMarkdown(const std::string &aggregatesJson,
                         const std::string &title)
{
    const JsonValue doc = parseJson(aggregatesJson, "aggregates");
    const JsonValue &schema = doc.at("schema");
    if (!schema.isString() ||
        schema.text != "irtherm.sweep.aggregates.v1")
        configError("aggregates: unexpected schema");

    const JsonValue &states = doc.at("states");
    std::string md;
    md += "# Sweep summary — " + title + "\n\n";
    md += aggCount(doc, "jobs") + " scenario(s): " +
          aggCount(states, "ok") + " ok, " +
          aggCount(states, "failed") + " failed, " +
          aggCount(states, "timeout") + " timed out, " +
          aggCount(states, "hung") + " hung.\n\n";
    md += aggCount(doc, "warm_started") + " warm-started, ";
    // Older aggregates (pre superposition cache) lack the field.
    if (doc.find("impulse_cache_hits") != nullptr)
        md += aggCount(doc, "impulse_cache_hits") +
              " impulse-cache hit(s), ";
    md += aggCount(doc, "retries") + " retried attempt(s).\n\n";

    const JsonValue &wall = doc.at("wall");
    md += "## Job wall time\n\n";
    md += "| p50 (s) | p95 (s) | p99 (s) | mean (s) | max (s) |\n";
    md += "|---:|---:|---:|---:|---:|\n";
    if (aggNumber(wall, "count") > 0.0) {
        md += "| " + formatFixed(aggNumber(wall, "p50"), 3) + " | " +
              formatFixed(aggNumber(wall, "p95"), 3) + " | " +
              formatFixed(aggNumber(wall, "p99"), 3) + " | " +
              formatFixed(aggNumber(wall, "mean"), 3) + " | " +
              formatFixed(aggNumber(wall, "max"), 3) + " |\n";
    } else {
        md += "| - | - | - | - | - |\n";
    }

    md += "\n## Silicon temperature (ok jobs)\n\n";
    md += "| metric | min | mean | max |\n";
    md += "|---|---:|---:|---:|\n";
    md += "| peak (C) | " + statCells(doc.at("peak_c")) + " |\n";
    md += "| gradient (K) | " + statCells(doc.at("gradient_k")) +
          " |\n";

    const JsonValue &axes = doc.at("axes");
    for (const auto &[axisKey, cells] : axes.members) {
        md += "\n## Axis `" + pipeSafe(axisKey) + "`\n\n";
        md += "| value | jobs | ok | peak mean (C) | peak max (C) |"
              " wall sum (s) |\n";
        md += "|---|---:|---:|---:|---:|---:|\n";
        for (const auto &[value, cell] : cells.members) {
            const bool anyOk = aggNumber(cell, "ok") > 0.0;
            md += "| " + pipeSafe(value) + " | " +
                  aggCount(cell, "count") + " | " +
                  aggCount(cell, "ok") + " | " +
                  (anyOk ? formatFixed(aggNumber(cell, "peak_mean"), 2)
                         : std::string("-")) +
                  " | " +
                  (anyOk ? formatFixed(aggNumber(cell, "peak_max"), 2)
                         : std::string("-")) +
                  " | " + formatFixed(aggNumber(cell, "wall_sum"), 2) +
                  " |\n";
        }
    }
    if (aggNumber(doc, "axes_dropped") > 0.0) {
        md += "\n" + aggCount(doc, "axes_dropped") +
              " axis value(s) beyond the per-axis cap were folded "
              "into the totals only.\n";
    }

    const JsonValue &slowest = doc.at("top_slowest");
    if (!slowest.items.empty()) {
        md += "\n## Slowest jobs\n\n";
        md += "| scenario | status | wall (s) |\n";
        md += "|---|---|---:|\n";
        for (const JsonValue &job : slowest.items) {
            md += "| " + pipeSafe(job.at("name").text) + " | " +
                  job.at("status").text + " | " +
                  formatFixed(aggNumber(job, "wall_s"), 3) + " |\n";
        }
    }
    return md;
}

} // namespace irtherm::sweep
