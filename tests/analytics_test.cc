/**
 * @file
 * Streaming-analytics tests: the columnar segment codec (bit-exact
 * round trip, corruption detection, directory scan), the incremental
 * SweepAggregator (counts, quantiles, group-bys, top-k, checkpoint
 * restore), the offline fast read / compaction path, and end-to-end
 * crash recovery from a torn segment seal during a real sweep —
 * including the live /aggregates and /dashboard HTTP surfaces.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "sweep/aggregate.hh"
#include "sweep/compact.hh"
#include "sweep/json.hh"
#include "sweep/plan.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "sweep/segment.hh"

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

/**
 * A JobResult with every journal field populated, varied by @p i so
 * columns exercise deltas, negatives, and dictionary reuse.
 */
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
// Segment codec
// ---------------------------------------------------------------

TEST(Segment, RoundTripIsBitExactForEveryField)
{
    const std::string dir = freshDir("roundtrip");
    std::vector<sweep::JobResult> rows;
    for (std::size_t i = 0; i < 64; ++i)
        rows.push_back(denseResult(i));
    // One non-canonical hash forces the string-hash encoding for the
    // whole segment.
    rows[7].hash = "not-a-hex-hash";

    const std::string path = sweep::segmentPath(dir, 0);
    const sweep::SegmentWriteInfo info =
        sweep::writeSegmentFile(path, rows);
    EXPECT_FALSE(info.torn);
    EXPECT_GT(info.bytes, 0u);

    const std::vector<sweep::JobResult> back =
        sweep::readSegmentFile(path);
    ASSERT_EQ(back.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        // toJsonLine() prints doubles with %.17g, which round-trips
        // IEEE 754 exactly — string equality here is bit-exactness
        // over every journal field, resources and axes included.
        EXPECT_EQ(back[i].toJsonLine(), rows[i].toJsonLine())
            << "row " << i;
    }
}

TEST(Segment, CanonicalHashPathStaysCompactAndExact)
{
    const std::string dir = freshDir("hashu64");
    std::vector<sweep::JobResult> rows;
    for (std::size_t i = 0; i < 32; ++i)
        rows.push_back(denseResult(i));
    const std::string path = sweep::segmentPath(dir, 3);
    sweep::writeSegmentFile(path, rows);
    const std::vector<sweep::JobResult> back =
        sweep::readSegmentFile(path);
    ASSERT_EQ(back.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(back[i].hash, rows[i].hash);
}

TEST(Segment, CorruptionAndTruncationAreDetected)
{
    const std::string dir = freshDir("corrupt");
    std::vector<sweep::JobResult> rows{denseResult(0),
                                       denseResult(1)};
    const std::string path = sweep::segmentPath(dir, 0);
    sweep::writeSegmentFile(path, rows);

    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 32u);

    // Flip one payload byte: the CRC must catch it.
    std::string flipped = bytes;
    flipped[bytes.size() / 2] =
        static_cast<char>(flipped[bytes.size() / 2] ^ 0x40);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << flipped;
    }
    EXPECT_THROW(sweep::readSegmentFile(path), IoError);

    // A torn prefix (mid-seal kill) must be rejected, not misparsed.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    }
    EXPECT_THROW(sweep::readSegmentFile(path), IoError);
}

TEST(Segment, ScanFindsSealedInOrderAndReportsLeftovers)
{
    const std::string dir = freshDir("scan");
    std::vector<sweep::JobResult> rows{denseResult(0)};
    sweep::writeSegmentFile(sweep::segmentPath(dir, 2), rows);
    sweep::writeSegmentFile(sweep::segmentPath(dir, 0), rows);
    {
        std::ofstream tmp(sweep::segmentPath(dir, 9) + ".tmp");
        tmp << "half";
    }
    {
        std::ofstream stray(
            (std::filesystem::path(sweep::segmentDir(dir)) /
             "notes.txt")
                .string());
        stray << "ignore me";
    }
    const sweep::SegmentScan scan = sweep::scanSegments(dir);
    ASSERT_EQ(scan.sealed.size(), 2u);
    EXPECT_EQ(scan.sealed[0].first, 0u);
    EXPECT_EQ(scan.sealed[1].first, 2u);
    ASSERT_EQ(scan.leftovers.size(), 1u);
    EXPECT_NE(scan.leftovers[0].find(".tmp"), std::string::npos);
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

TEST(Aggregator, CheckpointRoundTripsExactly)
{
    sweep::SweepAggregator agg;
    for (std::size_t i = 0; i < 257; ++i)
        agg.update(denseResult(i));
    const std::string json = agg.toJson();

    sweep::SweepAggregator restored;
    restored.restore(sweep::parseJson(json, "ckpt"), "ckpt");
    EXPECT_EQ(restored.jobs(), agg.jobs());
    // Byte-identical re-serialization: every stateful field (bucket
    // maps, sums, top-k, axis cells) survived the round trip.
    EXPECT_EQ(restored.toJson(), json);

    // And restoring is a replacement, not a merge.
    restored.restore(sweep::parseJson(json, "ckpt"), "ckpt");
    EXPECT_EQ(restored.toJson(), json);
}

TEST(Aggregator, RestoreRejectsWrongSchema)
{
    sweep::SweepAggregator agg;
    const sweep::JsonValue bogus = sweep::parseJson(
        R"({"schema":"irtherm.sweep.status.v1"})", "bogus");
    EXPECT_THROW(agg.restore(bogus, "bogus"), ConfigError);
}

// ---------------------------------------------------------------
// Offline fast read + compaction
// ---------------------------------------------------------------

TEST(Compact, SynthesizedJournalIsDeterministic)
{
    const std::string a = freshDir("synth_a");
    const std::string b = freshDir("synth_b");
    sweep::synthesizeJournal(a, 500, 42);
    sweep::synthesizeJournal(b, 500, 42);
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
}

TEST(Compact, FastReadMatchesFullScanAfterCompaction)
{
    const std::string dir = freshDir("fastread");
    sweep::synthesizeJournal(dir, 2000, 7);
    const sweep::CompactStats stats =
        sweep::compactJournal(dir, 512);
    EXPECT_EQ(stats.rows, 2000u);
    // 3 full segments of 512 + the 464-row finalize remainder.
    EXPECT_EQ(stats.segments, 4u);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_GT(stats.journalBytes, 0u);
    EXPECT_GT(stats.segmentBytes, 0u);
    // Columnar + varint beats JSONL by a wide margin.
    EXPECT_LT(stats.segmentBytes, stats.journalBytes / 2);

    const sweep::JournalData fast = sweep::readJournal(dir);
    EXPECT_TRUE(fast.fromCheckpoint);
    EXPECT_EQ(fast.segmentsRead, 4u);
    EXPECT_EQ(fast.jsonlRows, 0u); // checkpoint covers everything

    const sweep::JournalData full = sweep::readJournal(dir, true);
    EXPECT_FALSE(full.fromCheckpoint);
    EXPECT_EQ(full.jsonlRows, 2000u);

    ASSERT_EQ(fast.rows.size(), full.rows.size());
    for (std::size_t i = 0; i < fast.rows.size(); ++i) {
        EXPECT_EQ(fast.rows[i].toJsonLine(),
                  full.rows[i].toJsonLine())
            << "row " << i;
    }
    // The restored aggregates equal a from-scratch recount, byte for
    // byte (same fold order, %.17g serialization).
    EXPECT_EQ(fast.aggregatesJson, full.aggregatesJson);
}

TEST(Compact, RecompactionIsIdempotent)
{
    const std::string dir = freshDir("idempotent");
    sweep::synthesizeJournal(dir, 700, 3);
    const sweep::CompactStats first = sweep::compactJournal(dir, 256);
    const sweep::CompactStats second =
        sweep::compactJournal(dir, 256);
    EXPECT_EQ(first.rows, 700u);
    EXPECT_EQ(second.rows, 700u);
    // Already-covered rows are not resealed; the second pass leaves
    // the same sealed set behind.
    EXPECT_EQ(second.segments, first.segments);
    const sweep::JournalData fast = sweep::readJournal(dir);
    EXPECT_TRUE(fast.fromCheckpoint);
    EXPECT_EQ(fast.rows.size(), 700u);
}

TEST(Compact, AppendAfterCompactionOnlyReplaysTheTail)
{
    const std::string dir = freshDir("tail");
    sweep::synthesizeJournal(dir, 300, 11);
    sweep::compactJournal(dir, 128);
    // A later run appends more rows (different seed -> new hashes).
    sweep::synthesizeJournal(dir, 50, 99);

    const sweep::JournalData fast = sweep::readJournal(dir);
    EXPECT_TRUE(fast.fromCheckpoint);
    EXPECT_EQ(fast.jsonlRows, 50u); // only the tail was parsed
    const sweep::JournalData full = sweep::readJournal(dir, true);
    ASSERT_EQ(fast.rows.size(), full.rows.size());
    EXPECT_EQ(fast.aggregatesJson, full.aggregatesJson);
}

// ---------------------------------------------------------------
// ResultStore resume + torn-segment crash recovery (end to end)
// ---------------------------------------------------------------

const char *kResumePlan =
    R"({"name": "seg",
        "base": {"floorplan": "preset:ev6"},
        "axes": {"power.uniform": [0.30, 0.35, 0.40, 0.45,
                                   0.50, 0.55]}})";

TEST(SegmentResume, TornSegmentIsQuarantinedAndNothingRerunsTwice)
{
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kResumePlan, "seg");
    sweep::SweepOptions opts;
    opts.outDir = freshDir("torn");
    opts.workers = 1;
    opts.segmentJobs = 2;
    opts.writeReports = false;
    opts.stopAfter = 4;
    {
        // Segment 0 (jobs 1-2) seals cleanly and checkpoints; the
        // seal of segment 1 (jobs 3-4) tears mid-write, after which
        // the writer behaves as if it died (no checkpoint update).
        // stopAfter then kills the run with jobs 5-6 never executed.
        const ArmGuard faults("journal.torn_segment:after=1");
        const sweep::SweepSummary first = sweep::runSweep(plan, opts);
        EXPECT_EQ(first.executed, 4u);
        EXPECT_EQ(first.ok, 4u);
    }
    // The torn segment is on disk at its sealed name.
    EXPECT_TRUE(std::filesystem::exists(
        sweep::segmentPath(opts.outDir, 1)));

    opts.stopAfter = 0;
    opts.resume = true;
    const sweep::SweepSummary second = sweep::runSweep(plan, opts);
    // Resume quarantined exactly the torn segment, recovered its
    // rows from the JSONL tail (jobs 3-4 count as cached, not
    // re-executed), and ran only the jobs the kill left undone.
    EXPECT_EQ(second.quarantinedSegments, 1u);
    EXPECT_EQ(second.quarantined, 0u);
    EXPECT_EQ(second.cached, 4u);
    EXPECT_EQ(second.executed, 2u);
    EXPECT_EQ(second.ok, 2u);
    EXPECT_TRUE(std::filesystem::exists(
        sweep::segmentPath(opts.outDir, 1) + ".torn"));

    // The finished directory is coherent: the fast read restores the
    // checkpointed aggregates and they match a from-scratch recount
    // of the full journal, byte for byte.
    const sweep::JournalData fast = sweep::readJournal(opts.outDir);
    EXPECT_TRUE(fast.fromCheckpoint);
    EXPECT_EQ(fast.rows.size(), 6u);
    const sweep::JournalData full =
        sweep::readJournal(opts.outDir, true);
    EXPECT_EQ(fast.aggregatesJson, full.aggregatesJson);
    const sweep::JsonValue agg =
        sweep::parseJson(fast.aggregatesJson, "agg");
    EXPECT_EQ(agg.at("jobs").number, 6.0);
    EXPECT_EQ(agg.at("states").at("ok").number, 6.0);
    // Axis group-bys flowed from the runner into the journal.
    EXPECT_EQ(agg.at("axes").at("power.uniform").members.size(), 6u);

    // A third resume re-runs nothing and quarantines nothing.
    const sweep::SweepSummary third = sweep::runSweep(plan, opts);
    EXPECT_EQ(third.executed, 0u);
    EXPECT_EQ(third.cached, 6u);
    EXPECT_EQ(third.quarantinedSegments, 0u);
}

TEST(SegmentResume, TearWhileSealingAResumedTailRerunsNothing)
{
    const sweep::SweepPlan plan = sweep::SweepPlan::parse(
        R"({"name": "seg2",
            "base": {"floorplan": "preset:ev6"},
            "axes": {"power.uniform": [0.30, 0.32, 0.34, 0.36, 0.38,
                                       0.40, 0.42, 0.44, 0.46,
                                       0.48]}})",
        "seg2");
    sweep::SweepOptions opts;
    opts.outDir = freshDir("torn_tail");
    opts.workers = 1;
    opts.segmentJobs = 2;
    opts.writeReports = false;
    opts.stopAfter = 7;
    {
        // Segment 0 (jobs 1-2) seals and checkpoints; segment 1 (jobs
        // 3-4) tears, and jobs 5-7 are journaled but never sealed.
        const ArmGuard faults("journal.torn_segment:after=1");
        EXPECT_EQ(sweep::runSweep(plan, opts).executed, 7u);
    }
    opts.stopAfter = 0;
    opts.resume = true;
    {
        // The resume replays jobs 3-7 from the journal's tail into
        // the seal buffer. Job 8's row seals segment 1 (jobs 3-4),
        // and the seal of segment 2 (jobs 5-6) tears: jobs 7 and 8
        // were never sealed, so no checkpoint may claim them yet.
        const ArmGuard faults("journal.torn_segment:after=1");
        const sweep::SweepSummary second = sweep::runSweep(plan, opts);
        EXPECT_EQ(second.cached, 7u);
        EXPECT_EQ(second.executed, 3u);
    }
    const sweep::SweepSummary third = sweep::runSweep(plan, opts);
    EXPECT_EQ(third.executed, 0u);
    EXPECT_EQ(third.cached, 10u);

    // Every job is journaled exactly once.
    std::ifstream in(
        (std::filesystem::path(opts.outDir) / "journal.jsonl").string());
    std::size_t rows = 0;
    std::set<std::string> hashes;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++rows;
        hashes.insert(sweep::JobResult::fromJsonLine(line, "journal").hash);
    }
    EXPECT_EQ(rows, 10u);
    EXPECT_EQ(hashes.size(), 10u);
}

TEST(SegmentResume, JsonlOnlyDirectoryResumesThroughTheFullScan)
{
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kResumePlan, "seg");
    sweep::SweepOptions opts;
    opts.outDir = freshDir("jsonl_only");
    opts.workers = 1;
    opts.segmentJobs = 0;
    EXPECT_THROW(sweep::runSweep(plan, opts), ConfigError);

    // A directory holding only journal.jsonl, as a journal written
    // without segments or checkpoints leaves it.
    opts.segmentJobs = 4;
    opts.writeReports = false;
    EXPECT_EQ(sweep::runSweep(plan, opts).executed, 6u);
    std::filesystem::remove_all(sweep::segmentDir(opts.outDir));
    std::filesystem::remove(
        std::filesystem::path(opts.outDir) / "aggregates.ckpt");

    opts.resume = true;
    const sweep::SweepSummary second = sweep::runSweep(plan, opts);
    EXPECT_EQ(second.cached, 6u);
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.quarantined, 0u);
    // The resume sealed the scanned rows and checkpointed them, so
    // the directory now reads through the fast path.
    const sweep::JournalData fast = sweep::readJournal(opts.outDir);
    EXPECT_TRUE(fast.fromCheckpoint);
    EXPECT_EQ(fast.segmentsRead, 2u);
    EXPECT_EQ(fast.rows.size(), 6u);
}

// ---------------------------------------------------------------
// Journal instrumentation
// ---------------------------------------------------------------

TEST(JournalMetrics, WritePathFeedsThePrometheusCounters)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const std::string dir = freshDir("metrics");
    sweep::ResultStoreOptions sopts;
    sopts.segmentJobs = 4;
    {
        sweep::ResultStore store(dir, sopts);
        for (std::size_t i = 0; i < 10; ++i)
            store.add(denseResult(i));
        store.finalize();
    }
    // A garbage tail line on reload drives the quarantine counter.
    {
        std::ofstream tail((std::filesystem::path(dir) /
                            "journal.jsonl")
                               .string(),
                           std::ios::app);
        tail << "{not json\n";
    }
    sweep::ResultStore reloaded(dir, sopts);
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

TEST(SweepServer, ServesAggregatesAndDashboard)
{
    const sweep::SweepPlan plan =
        sweep::SweepPlan::parse(kResumePlan, "seg");
    sweep::SweepOptions opts;
    opts.outDir = freshDir("serve");
    opts.workers = 2;
    opts.writeReports = false;
    opts.servePort = 0;
    std::string aggregates, dashboard, status;
    opts.onServerStart = [&](int port) {
        aggregates = httpGet(port, "/aggregates");
        dashboard = httpGet(port, "/dashboard");
        status = httpGet(port, "/status");
    };
    sweep::runSweep(plan, opts);

    EXPECT_NE(aggregates.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(aggregates.find("irtherm.sweep.aggregates.v1"),
              std::string::npos);

    EXPECT_NE(dashboard.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(dashboard.find("text/html"), std::string::npos);
    EXPECT_NE(dashboard.find("<!DOCTYPE html>"), std::string::npos);
    // Self-contained: no external scripts, styles, or fonts.
    EXPECT_EQ(dashboard.find("src=\"http"), std::string::npos);
    EXPECT_EQ(dashboard.find("href=\"http"), std::string::npos);
    EXPECT_EQ(dashboard.find("@import"), std::string::npos);

    EXPECT_NE(status.find("irtherm.sweep.status.v1"),
              std::string::npos);
    // Before any job completes the trailing throughput is zero, so
    // the ETA must be JSON null — never Infinity or NaN.
    EXPECT_NE(status.find("\"eta_s\":null"), std::string::npos);
}

} // namespace
} // namespace irtherm
