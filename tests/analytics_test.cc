/**
 * @file
 * Streaming-analytics tests: the incremental SweepAggregator (counts,
 * quantiles, group-bys, top-k), live aggregates against a recompute
 * from the journal, the synthetic-journal helper, resume through the
 * journal scan, the journal's metrics, and the live /aggregates HTTP
 * surface.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "sweep/aggregate.hh"
#include "sweep/json.hh"
#include "sweep/plan.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"

namespace irtherm
{
namespace
{

/** Arm the global injector for one scope; always disarm on exit. */
class ArmGuard
{
  public:
    explicit ArmGuard(const std::string &spec)
    {
        FaultInjector::global().arm(spec);
    }
    ~ArmGuard() { FaultInjector::global().disarm(); }
    ArmGuard(const ArmGuard &) = delete;
    ArmGuard &operator=(const ArmGuard &) = delete;
};

/** Fresh per-test output directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("irtherm_analytics_" + tag);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** A JobResult with every journal field populated, varied by @p i. */
sweep::JobResult
denseResult(std::size_t i)
{
    sweep::JobResult r;
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016zx", 0xabcd0000 + i * 37);
    r.hash = hash;
    r.name = "job/vdd=1.0/rep=" + std::to_string(i);
    r.status = static_cast<sweep::JobStatus>(i % 4);
    if (r.status != sweep::JobStatus::Ok) {
        r.error = "solver diverged \"badly\" on rep " +
                  std::to_string(i);
        r.errorClass = ErrorClass::Numeric;
    }
    r.attempts = 1 + i % 3;
    r.fallbackTier = static_cast<int>(i % 2);
    r.wallSeconds = 0.001 * static_cast<double>(i + 1) + 1e-9;
    r.peakCelsius = 70.0 + 0.1 * static_cast<double>(i);
    r.minCelsius = 50.0 - 0.3 * static_cast<double>(i);
    r.gradientKelvin = r.peakCelsius - r.minCelsius;
    r.hottestUnit = i % 2 == 0 ? "core0" : "l2cache";
    r.heatPrimaryWatts = 42.25 + static_cast<double>(i);
    r.heatSecondaryWatts = 1.0 / 3.0;
    r.cgIterations = 100 + i;
    r.warmStarted = i % 3 == 0;
    r.blockCelsius.emplace_back("core0", 71.125 + 0.25 * i);
    r.blockCelsius.emplace_back("l2cache",
                                60.0 + 1e-13 * static_cast<double>(i));
    r.resources.cpuSeconds = r.wallSeconds * 0.9;
    r.resources.peakRssDeltaKb =
        static_cast<std::int64_t>(i) * 17 - 32;
    r.resources.solverIterations = 2 * r.cgIterations;
    r.resources.retries = r.attempts - 1;
    r.resources.fallbackEscalations = r.fallbackTier;
    r.axisValues.emplace_back("vdd", "1.0");
    r.axisValues.emplace_back("rep", std::to_string(i));
    return r;
}

// ---------------------------------------------------------------
// SweepAggregator
// ---------------------------------------------------------------

TEST(Aggregator, CountsQuantilesAndGroupBys)
{
    sweep::SweepAggregator agg;
    for (std::size_t i = 0; i < 100; ++i) {
        sweep::JobResult r;
        r.hash = std::to_string(i);
        r.name = "j" + std::to_string(i);
        r.status = i < 90 ? sweep::JobStatus::Ok
                          : (i < 95 ? sweep::JobStatus::Failed
                                    : sweep::JobStatus::Timeout);
        r.wallSeconds = 0.010 * static_cast<double>(i + 1);
        r.peakCelsius = 60.0 + static_cast<double>(i % 10);
        r.gradientKelvin = 10.0;
        r.warmStarted = i % 2 == 0;
        r.attempts = 1;
        r.axisValues.emplace_back("vdd", i % 2 == 0 ? "0.9" : "1.1");
        agg.update(r);
    }
    EXPECT_EQ(agg.jobs(), 100u);

    const sweep::JsonValue doc =
        sweep::parseJson(agg.toJson(), "aggregates");
    EXPECT_EQ(doc.at("schema").text, "irtherm.sweep.aggregates.v1");
    EXPECT_EQ(doc.at("jobs").number, 100.0);
    EXPECT_EQ(doc.at("states").at("ok").number, 90.0);
    EXPECT_EQ(doc.at("states").at("failed").number, 5.0);
    EXPECT_EQ(doc.at("states").at("timeout").number, 5.0);
    EXPECT_EQ(doc.at("warm_started").number, 50.0);

    const sweep::JsonValue &wall = doc.at("wall");
    EXPECT_EQ(wall.at("count").number, 100.0);
    EXPECT_NEAR(wall.at("mean").number, 0.010 * 50.5, 1e-12);
    // Bucketed quantiles interpolate; generous tolerances.
    EXPECT_GT(wall.at("p95").number, wall.at("p50").number);
    EXPECT_GE(wall.at("p99").number, wall.at("p95").number);
    EXPECT_LE(wall.at("p99").number, wall.at("max").number + 1e-12);

    // Temperatures only aggregate over ok jobs.
    EXPECT_EQ(doc.at("peak_c").at("count").number, 90.0);
    EXPECT_EQ(doc.at("gradient_k").at("count").number, 90.0);
    EXPECT_NEAR(doc.at("gradient_k").at("mean").number, 10.0, 1e-12);

    const sweep::JsonValue &vdd = doc.at("axes").at("vdd");
    EXPECT_EQ(vdd.at("0.9").at("count").number, 50.0);
    EXPECT_EQ(vdd.at("1.1").at("count").number, 50.0);
    EXPECT_EQ(doc.at("axes_dropped").number, 0.0);
}

TEST(Aggregator, TopSlowestIsBoundedSortedAndTieStable)
{
    sweep::SweepAggregator agg;
    for (std::size_t i = 0; i < 50; ++i) {
        sweep::JobResult r;
        r.hash = std::to_string(i);
        r.name = "job-" + std::to_string(100 + i);
        r.wallSeconds = static_cast<double>(i % 10);
        agg.update(r);
    }
    const sweep::JsonValue doc =
        sweep::parseJson(agg.toJson(), "aggregates");
    const sweep::JsonValue &top = doc.at("top_slowest");
    ASSERT_EQ(top.items.size(), sweep::SweepAggregator::kTopSlowest);
    for (std::size_t i = 1; i < top.items.size(); ++i) {
        const double prev = top.items[i - 1].at("wall_s").number;
        const double cur = top.items[i].at("wall_s").number;
        EXPECT_GE(prev, cur);
        if (prev == cur) {
            EXPECT_LT(top.items[i - 1].at("name").text,
                      top.items[i].at("name").text);
        }
    }
}

TEST(Aggregator, AxisValueCapFoldsOverflowIntoDropCounter)
{
    sweep::SweepAggregator agg;
    const std::size_t overflow = 10;
    for (std::size_t i = 0;
         i < sweep::SweepAggregator::kMaxAxisValues + overflow; ++i) {
        sweep::JobResult r;
        r.hash = std::to_string(i);
        r.name = "j" + std::to_string(i);
        r.axisValues.emplace_back("seed", std::to_string(i));
        agg.update(r);
    }
    const sweep::JsonValue doc =
        sweep::parseJson(agg.toJson(), "aggregates");
    EXPECT_EQ(doc.at("axes").at("seed").members.size(),
              sweep::SweepAggregator::kMaxAxisValues);
    EXPECT_EQ(doc.at("axes_dropped").number,
              static_cast<double>(overflow));
    // Totals still count every job.
    EXPECT_EQ(doc.at("jobs").number,
              static_cast<double>(
                  sweep::SweepAggregator::kMaxAxisValues + overflow));
}

// ---------------------------------------------------------------
// Live aggregates against the journal
// ---------------------------------------------------------------

TEST(JournalAggregates, LiveAggregatesEqualTheOfflineRecompute)
{
    const std::string dir = freshDir("live_vs_offline");
    std::string live;
    {
        // Job 4's journal line is scrambled as it is written.
        const ArmGuard faults("journal.corrupt:match=rep=4");
        sweep::ResultStore store(dir);
        for (std::size_t i = 0; i < 10; ++i)
            store.add(denseResult(i));
        EXPECT_EQ(FaultInjector::global().fired(), 1u);
        live = store.aggregatesJson();
    }
    EXPECT_EQ(sweep::parseJson(live, "live").at("jobs").number, 9.0);
    const sweep::JournalData offline = sweep::readJournal(dir);
    EXPECT_EQ(offline.rows.size(), 9u);
    EXPECT_EQ(offline.skippedLines, 1u);
    EXPECT_EQ(live, offline.aggregatesJson);

    // Resume rebuilds the same document, quarantining the line.
    sweep::ResultStore reloaded(dir);
    EXPECT_EQ(reloaded.loadJournal(), 9u);
    EXPECT_EQ(reloaded.quarantined(), 1u);
    EXPECT_EQ(reloaded.aggregatesJson(), live);
}

TEST(JournalAggregates, RowMergedIntoATornLineStaysOutOfTheAggregates)
{
    // journal.truncate writes half of job 4's line and no newline, so
    // job 5's row merges into it: one unparsable line, two lost rows.
    const std::string dir = freshDir("torn_line");
    std::string live;
    {
        const ArmGuard faults("journal.truncate:match=rep=4");
        sweep::ResultStore store(dir);
        for (std::size_t i = 0; i < 10; ++i)
            store.add(denseResult(i));
        live = store.aggregatesJson();
    }
    const sweep::JournalData offline = sweep::readJournal(dir);
    EXPECT_EQ(offline.rows.size(), 8u);
    EXPECT_EQ(offline.skippedLines, 1u);
    EXPECT_EQ(live, offline.aggregatesJson);
}

// ---------------------------------------------------------------
// The synthetic-journal helper (tests/journal_synth.cc); the suite
// keeps its older name so the test's id stays stable
// ---------------------------------------------------------------

TEST(Compact, SynthesizedJournalIsDeterministic)
{
    const std::string a = freshDir("synth_a");
    const std::string b = freshDir("synth_b");
    for (const std::string &dir : {a, b}) {
        const std::string cmd = std::string("'") +
                                IRTHERM_JOURNAL_SYNTH_PATH + "' '" +
                                dir + "' --jobs 500 --seed 42 >/dev/null";
        ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    }
    auto slurp = [](const std::string &dir) {
        std::ifstream in(
            (std::filesystem::path(dir) / "journal.jsonl").string(),
            std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    const std::string ja = slurp(a);
    EXPECT_FALSE(ja.empty());
    EXPECT_EQ(ja, slurp(b));
    const sweep::JournalData data = sweep::readJournal(a);
    EXPECT_EQ(data.rows.size(), 500u);
    EXPECT_EQ(data.skippedLines, 0u);
}

// ---------------------------------------------------------------
// Resume through the journal scan; every directory is JSONL-only,
// and the suite keeps its older name so the test's id stays stable
// ---------------------------------------------------------------

const char *kResumePlan =
    R"({"name": "resume",
        "base": {"floorplan": "preset:ev6"},
        "axes": {"power.uniform": [0.30, 0.35, 0.40, 0.45,
                                   0.50, 0.55]}})";

TEST(SegmentResume, JsonlOnlyDirectoryResumesThroughTheFullScan)
{
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kResumePlan, "resume");
    sweep::SweepOptions opts;
    opts.outDir = freshDir("resume");
    opts.workers = 1;
    opts.writeReports = false;
    EXPECT_EQ(sweep::runSweep(plan, opts).executed, 6u);

    opts.resume = true;
    const sweep::SweepSummary second = sweep::runSweep(plan, opts);
    EXPECT_EQ(second.cached, 6u);
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.quarantined, 0u);
    EXPECT_EQ(sweep::readJournal(opts.outDir).rows.size(), 6u);
}

// ---------------------------------------------------------------
// Journal instrumentation
// ---------------------------------------------------------------

TEST(JournalMetrics, WritePathFeedsThePrometheusCounters)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const std::string dir = freshDir("metrics");
    {
        sweep::ResultStore store(dir);
        for (std::size_t i = 0; i < 10; ++i)
            store.add(denseResult(i));
    }
    // A garbage tail line on reload drives the quarantine counter.
    {
        std::ofstream tail((std::filesystem::path(dir) /
                            "journal.jsonl")
                               .string(),
                           std::ios::app);
        tail << "{not json\n";
    }
    sweep::ResultStore reloaded(dir);
    EXPECT_EQ(reloaded.loadJournal(), 10u);
    EXPECT_EQ(reloaded.quarantined(), 1u);

    const std::string text =
        obs::metricsToPrometheus(obs::MetricsRegistry::global());
    // Counter values are cumulative across the whole binary, so only
    // presence (and the counters having moved) is asserted.
    EXPECT_NE(text.find("irtherm_sweep_journal_bytes_written_total"),
              std::string::npos);
    EXPECT_NE(text.find("irtherm_sweep_journal_flush_seconds"),
              std::string::npos);
    EXPECT_NE(text.find("irtherm_sweep_journal_quarantined_lines"),
              std::string::npos);
    EXPECT_NE(text.find("irtherm_sweep_agg_update_seconds"),
              std::string::npos);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    EXPECT_GT(reg.counter("sweep.journal.bytes_written").value(), 0u);
    EXPECT_GT(reg.counter("sweep.journal.quarantined_lines").value(),
              0u);
    EXPECT_GT(reg.timer("sweep.journal.flush_seconds").count(), 0u);
    EXPECT_GT(reg.timer("sweep.agg.update_seconds").count(), 0u);
}

// ---------------------------------------------------------------
// Live HTTP surfaces
// ---------------------------------------------------------------

/** Blocking one-shot HTTP GET against 127.0.0.1:port. */
std::string
httpGet(int port, const std::string &target)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string req = "GET " + target +
                            " HTTP/1.1\r\nHost: localhost\r\n"
                            "Connection: close\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return reply;
}

TEST(SweepServer, ServesAggregates)
{
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kResumePlan, "resume");
    sweep::SweepOptions opts;
    opts.outDir = freshDir("serve");
    opts.workers = 2;
    opts.writeReports = false;
    opts.servePort = 0;
    std::string aggregates, status;
    opts.onServerStart = [&](int port) {
        aggregates = httpGet(port, "/aggregates");
        status = httpGet(port, "/status");
    };
    sweep::runSweep(plan, opts);

    EXPECT_NE(aggregates.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(aggregates.find("irtherm.sweep.aggregates.v1"),
              std::string::npos);

    EXPECT_NE(status.find("irtherm.sweep.status.v1"),
              std::string::npos);
    // Before any job completes the trailing throughput is zero, so
    // the ETA must be JSON null — never Infinity or NaN.
    EXPECT_NE(status.find("\"eta_s\":null"), std::string::npos);
}

} // namespace
} // namespace irtherm
