/**
 * @file
 * Observability layer: metrics registry semantics, histogram
 * bucketing, JSON/CSV export, the shared JSON number writer, event
 * instants in the span recorder's ring, disabled spans' allocation
 * cost, and the pluggable logging sink.
 *
 * Value assertions are skipped when the instrumentation is compiled
 * out (IRTHERM_ENABLE_METRICS=OFF) — update methods are no-ops then
 * by design — but registration, export, and schema stability are
 * asserted in both configurations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sweep/json.hh"

using namespace irtherm;

namespace
{

/** Calls to the global operator new in this test binary. */
std::atomic<std::size_t> allocationCount{0};

} // namespace

// Counting replacements of the global allocation functions. The
// array and sized forms forward to these in the standard library.
// The deletes stay out of line: inlined next to a new-expression,
// GCC would flag their free() as a mismatched deallocation.
void *
operator new(std::size_t n)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

/**
 * Minimal recursive-descent JSON syntax checker; accepts exactly the
 * RFC 8259 grammar (no trailing garbage). Returns false rather than
 * throwing so EXPECT_TRUE reports the offending document.
 */
class JsonChecker
{
  public:
    static bool
    valid(const std::string &text)
    {
        JsonChecker c(text);
        c.skipWs();
        if (!c.value())
            return false;
        c.skipWs();
        return c.pos == text.size();
    }

  private:
    explicit JsonChecker(const std::string &t) : s(t) {}

    const std::string &s;
    std::size_t pos = 0;

    bool eof() const { return pos >= s.size(); }
    char peek() const { return s[pos]; }

    void
    skipWs()
    {
        while (!eof() && (s[pos] == ' ' || s[pos] == '\t' ||
                          s[pos] == '\n' || s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (s.compare(pos, len, word) != 0)
            return false;
        pos += len;
        return true;
    }

    bool
    string()
    {
        if (eof() || peek() != '"')
            return false;
        ++pos;
        while (!eof() && peek() != '"') {
            if (peek() == '\\') {
                ++pos;
                if (eof())
                    return false;
                const char e = peek();
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (eof() || !std::isxdigit(
                                         static_cast<unsigned char>(
                                             peek())))
                            return false;
                    }
                } else if (!std::string("\"\\/bfnrt").find(e) &&
                           e != '"' && e != '\\' && e != '/' &&
                           e != 'b' && e != 'f' && e != 'n' &&
                           e != 'r' && e != 't') {
                    return false;
                }
            }
            ++pos;
        }
        if (eof())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (!eof() && peek() == '-')
            ++pos;
        while (!eof() && std::isdigit(
                             static_cast<unsigned char>(peek())))
            ++pos;
        if (!eof() && peek() == '.') {
            ++pos;
            while (!eof() && std::isdigit(
                                 static_cast<unsigned char>(peek())))
                ++pos;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos;
            while (!eof() && std::isdigit(
                                 static_cast<unsigned char>(peek())))
                ++pos;
        }
        return pos > start;
    }

    bool
    value()
    {
        skipWs();
        if (eof())
            return false;
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (eof() || peek() != ':')
                return false;
            ++pos;
            if (!value())
                return false;
            skipWs();
            if (eof())
                return false;
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (eof())
                return false;
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }
};

// ---------------------------------------------------------------
// MetricsRegistry semantics
// ---------------------------------------------------------------

TEST(MetricsRegistry, SameNameReturnsSameInstrument)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("x.y.z");
    obs::Counter &b = reg.counter("x.y.z");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.has("x.y.z"));
    EXPECT_FALSE(reg.has("x.y"));
}

TEST(MetricsRegistry, KindMismatchIsFatal)
{
    obs::MetricsRegistry reg;
    reg.counter("a.counter");
    EXPECT_THROW(reg.gauge("a.counter"), FatalError);
    EXPECT_THROW(reg.timer("a.counter"), FatalError);
    EXPECT_THROW(reg.histogram("a.counter"), FatalError);
}

TEST(MetricsRegistry, RejectsMalformedNames)
{
    obs::MetricsRegistry reg;
    EXPECT_THROW(reg.counter(""), FatalError);
    EXPECT_THROW(reg.counter("has space"), FatalError);
    EXPECT_THROW(reg.counter("has\"quote"), FatalError);
    EXPECT_THROW(reg.counter("has\nnewline"), FatalError);
}

TEST(MetricsRegistry, NamesAreSortedWithKinds)
{
    obs::MetricsRegistry reg;
    reg.timer("b.timer");
    reg.counter("a.counter");
    reg.histogram("c.hist");
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0].first, "a.counter");
    EXPECT_EQ(names[0].second, obs::MetricKind::Counter);
    EXPECT_EQ(names[1].first, "b.timer");
    EXPECT_EQ(names[1].second, obs::MetricKind::Timer);
    EXPECT_EQ(names[2].first, "c.hist");
    EXPECT_EQ(names[2].second, obs::MetricKind::Histogram);
}

TEST(MetricsRegistry, CounterGaugeTimerSemantics)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("t.c");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    obs::Gauge &g = reg.gauge("t.g");
    g.set(3.5);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);

    obs::Timer &t = reg.timer("t.t");
    t.addNanos(1'000'000'000);
    t.addNanos(500'000'000);
    EXPECT_EQ(t.count(), 2u);
    EXPECT_DOUBLE_EQ(t.totalSeconds(), 1.5);
    EXPECT_DOUBLE_EQ(t.meanSeconds(), 0.75);
}

TEST(MetricsRegistry, ScopedTimerCountsInvocations)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    obs::Timer &t = reg.timer("t.scoped");
    {
        obs::ScopedTimer span(t);
    }
    {
        obs::ScopedTimer span(t);
    }
    EXPECT_EQ(t.count(), 2u);
    EXPECT_GE(t.totalSeconds(), 0.0);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("r.c");
    obs::Histogram &h = reg.histogram("r.h");
    c.add(7);
    h.observe(2.0);
    reg.reset();
    EXPECT_EQ(reg.size(), 2u); // still registered
    EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------

TEST(Histogram, NonPositiveValuesLandInUnderflowBucket)
{
    EXPECT_EQ(obs::Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(obs::Histogram::bucketIndex(-1.0), 0u);
    // Below the smallest resolved power of two.
    EXPECT_EQ(obs::Histogram::bucketIndex(
                  std::ldexp(1.0, obs::Histogram::kMinExp - 3)),
              0u);
}

TEST(Histogram, BucketBoundsBracketTheValue)
{
    const double samples[] = {1e-9, 3.33e-6, 0.5,  1.0,
                              237.0, 1e5,    1e-12};
    for (double v : samples) {
        const std::size_t i = obs::Histogram::bucketIndex(v);
        ASSERT_GE(i, 1u) << v;
        ASSERT_LT(i, obs::Histogram::kBucketCount) << v;
        EXPECT_LE(obs::Histogram::bucketLowerBound(i), v) << v;
        EXPECT_LT(v, obs::Histogram::bucketUpperBound(i)) << v;
    }
}

TEST(Histogram, OverflowValuesLandInTopBucket)
{
    EXPECT_EQ(obs::Histogram::bucketIndex(
                  std::ldexp(1.0, obs::Histogram::kMaxExp + 5)),
              obs::Histogram::kBucketCount - 1);
}

TEST(Histogram, TracksCountSumMinMaxMean)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::Histogram h;
    h.observe(1.0);
    h.observe(2.0);
    h.observe(9.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 12.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    // 1.0 and 2.0(exclusive upper) differ by one bucket from 9.0.
    EXPECT_EQ(h.bucketCount(obs::Histogram::bucketIndex(1.0)), 1u);
    EXPECT_EQ(h.bucketCount(obs::Histogram::bucketIndex(9.0)), 1u);
}

// ---------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------

TEST(Export, StatsJsonIsValidAndCarriesSchemaAndNames)
{
    obs::MetricsRegistry reg;
    reg.counter("numeric.test.steps").add(5);
    reg.gauge("core.test.sim_time_s").set(1.25);
    reg.timer("cli.test.phase_time").addNanos(2'000'000);
    reg.histogram("numeric.test.step_size_s").observe(3.33e-6);

    const std::string doc = obs::metricsToJson(reg);
    EXPECT_TRUE(JsonChecker::valid(doc)) << doc;
    EXPECT_NE(doc.find("\"irtherm.stats.v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"numeric.test.steps\""), std::string::npos);
    EXPECT_NE(doc.find("\"core.test.sim_time_s\""), std::string::npos);
    EXPECT_NE(doc.find("\"cli.test.phase_time\""), std::string::npos);
    EXPECT_NE(doc.find("\"numeric.test.step_size_s\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"metrics_enabled\""), std::string::npos);
}

TEST(Export, StatsJsonValuesRoundTrip)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    reg.counter("rt.count").add(12345);
    reg.gauge("rt.gauge").set(0.1); // not exactly representable
    const std::string doc = obs::metricsToJson(reg);
    EXPECT_NE(doc.find("12345"), std::string::npos);
    EXPECT_NE(doc.find("0.1"), std::string::npos);
}

TEST(Export, CsvHasHeaderAndOneRowPerMetric)
{
    obs::MetricsRegistry reg;
    reg.counter("csv.a").add(1);
    reg.gauge("csv.b").set(2.0);
    std::ostringstream os;
    obs::writeMetricsCsv(os, reg);
    const std::string text = os.str();
    std::size_t lines = 0;
    for (char ch : text)
        lines += ch == '\n';
    EXPECT_EQ(lines, 3u) << text; // header + 2 rows
    EXPECT_NE(text.find("metric"), std::string::npos);
    EXPECT_NE(text.find("csv.a"), std::string::npos);
}

TEST(Export, CsvQuotesCellsContainingCommas)
{
    obs::MetricsRegistry reg;
    reg.counter("weird,name").add(1);
    std::ostringstream os;
    obs::writeMetricsCsv(os, reg);
    EXPECT_NE(os.str().find("\"weird,name\""), std::string::npos)
        << os.str();
}

TEST(Export, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Export, JsonNumberRoundTripsBitExactly)
{
    const double values[] = {-0.0,
                             5e-324, // smallest subnormal
                             std::numeric_limits<double>::max(),
                             0.1,
                             1.0 / 3.0,
                             9007199254740992.0, // 2^53
                             1e21,
                             1e-7,
                             100000.0};
    for (const double v : values) {
        const std::string text = obs::jsonNumber(v);
        const sweep::JsonValue back =
            sweep::parseJson("[" + text + "]", "jsonNumber");
        ASSERT_TRUE(back.items.at(0).isNumber()) << text;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.items[0].number),
                  std::bit_cast<std::uint64_t>(v))
            << text;
    }
    // JSON cannot spell non-finite values.
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(obs::jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(obs::jsonNumber(-HUGE_VAL), "null");
}

// ---------------------------------------------------------------
// Events: IRTHERM_EVENT instants in the span recorder's ring
// ---------------------------------------------------------------

namespace
{

/** RAII: enable the global recorder, restore off + empty. */
struct RecorderScope
{
    RecorderScope()
    {
        obs::SpanRecorder::global().clear();
        obs::SpanRecorder::global().setEnabled(true);
    }
    ~RecorderScope()
    {
        obs::SpanRecorder::global().setEnabled(false);
        obs::SpanRecorder::global().clear();
        obs::SpanRecorder::global().setCapacity(
            obs::SpanRecorder::kDefaultCapacity);
    }
};

} // namespace

TEST(EventTrace, DisabledTraceRecordsNothing)
{
    auto &rec = obs::SpanRecorder::global();
    rec.clear();
    rec.setEnabled(false);
    IRTHERM_EVENT("t.off", {"x", 1});
    obs::SpanRecorder::recordInstant("t.off", {{"k", 1.0}});
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.recorded(), 0u);
}

TEST(EventTrace, DisabledSpansAllocateNothing)
{
    auto &rec = obs::SpanRecorder::global();
    rec.setEnabled(false);
    // Past libstdc++'s 15-character inline string buffer, so a name,
    // key or value copied into a std::string would allocate.
    const std::string text = "a text attribute longer than fifteen";
    {
        obs::ScopedSpan first("campaign.phase.resume-fleet");
    }
    const std::size_t before = allocationCount.load();
    for (int i = 0; i < 1000; ++i) {
        obs::ScopedSpan span("campaign.phase.resume-fleet");
        span.attr("attribute.key.past.sso", text)
            .attr("literal.attribute.key", "literal text value")
            .attr("numeric.attribute.key", i);
    }
    EXPECT_EQ(allocationCount.load() - before, 0u);
}

TEST(EventTrace, MacroRecordsOnlyWhileGlobalTraceEnabled)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const RecorderScope scope;
    auto &rec = obs::SpanRecorder::global();
    IRTHERM_EVENT("t.on", {"x", 2}, {"note", "line\nbreak"});
    rec.setEnabled(false);
    IRTHERM_EVENT("t.off", {"x", 3});
    const std::vector<obs::SpanRecord> records = rec.snapshot();
    ASSERT_EQ(records.size(), 1u);
    const obs::SpanRecord &e = records.front();
    EXPECT_TRUE(e.instant);
    EXPECT_EQ(e.name, "t.on");
    EXPECT_EQ(e.durationSeconds, 0.0);
    ASSERT_EQ(e.attrs.size(), 2u);
    EXPECT_EQ(e.attrs[0].key, "x");
    EXPECT_DOUBLE_EQ(e.attrs[0].num, 2.0);
    EXPECT_EQ(e.attrs[1].text, "line\nbreak");
}

TEST(EventTrace, InstantNestsUnderOpenSpanOnItsThread)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const RecorderScope scope;
    auto &rec = obs::SpanRecorder::global();
    {
        obs::ScopedSpan outer("t.decision");
        IRTHERM_EVENT("t.engage", {"temp_k", 374.5});
        // Another thread's instant is a root on its own track, not
        // a child of this thread's open span.
        std::thread other([] { IRTHERM_EVENT("t.elsewhere", {"k", 1}); });
        other.join();
    }
    const std::vector<obs::SpanRecord> records = rec.snapshot();
    ASSERT_EQ(records.size(), 3u);
    const obs::SpanRecord *span = nullptr;
    const obs::SpanRecord *engage = nullptr;
    const obs::SpanRecord *elsewhere = nullptr;
    for (const obs::SpanRecord &r : records) {
        if (r.name == "t.decision")
            span = &r;
        else if (r.name == "t.engage")
            engage = &r;
        else if (r.name == "t.elsewhere")
            elsewhere = &r;
    }
    ASSERT_TRUE(span && engage && elsewhere);
    EXPECT_FALSE(span->instant);
    EXPECT_EQ(engage->parentId, span->id);
    EXPECT_EQ(engage->depth, 1u);
    EXPECT_EQ(engage->threadIndex, span->threadIndex);
    EXPECT_GE(engage->startSeconds, span->startSeconds);
    EXPECT_LE(engage->startSeconds,
              span->startSeconds + span->durationSeconds);
    EXPECT_EQ(elsewhere->parentId, 0u);
    EXPECT_NE(elsewhere->threadIndex, span->threadIndex);
}

TEST(EventTrace, RingOverwritesOldestAndCountsDrops)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const RecorderScope scope;
    auto &rec = obs::SpanRecorder::global();
    rec.setCapacity(4);
    // Spans and instants share one ring and one drop counter.
    for (int i = 0; i < 3; ++i) {
        IRTHERM_EVENT("t.tick", {"i", i});
        obs::ScopedSpan span("t.span");
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.recorded(), 6u);
    EXPECT_EQ(rec.dropped(), 2u);

    const std::vector<obs::SpanRecord> records = rec.snapshot();
    ASSERT_EQ(records.size(), 4u);
    // Oldest first: tick 1, span, tick 2, span.
    EXPECT_TRUE(records[0].instant);
    EXPECT_DOUBLE_EQ(records[0].attrs.at(0).num, 1.0);
    EXPECT_FALSE(records[1].instant);
    EXPECT_DOUBLE_EQ(records[2].attrs.at(0).num, 2.0);
    EXPECT_EQ(records[3].name, "t.span");
}

TEST(EventTrace, SetCapacityDiscardsAndClearZeroes)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const RecorderScope scope;
    auto &rec = obs::SpanRecorder::global();
    IRTHERM_EVENT("t.a", {"k", 1});
    rec.setCapacity(2);
    EXPECT_EQ(rec.capacity(), 2u);
    EXPECT_EQ(rec.size(), 0u);

    IRTHERM_EVENT("t.b", {"k", 2});
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(EventTrace, ZeroCapacityIsFatal)
{
    EXPECT_THROW(obs::SpanRecorder rec(0), FatalError);
}

// ---------------------------------------------------------------
// Logging sink / levels
// ---------------------------------------------------------------

/** Restores sink, level, and quiet state on scope exit. */
class LogStateGuard
{
  public:
    LogStateGuard() : saved(setLogSink({})), level(logLevel())
    {
        setLogSink(saved);
    }
    ~LogStateGuard()
    {
        setLogSink(saved);
        setLogLevel(level);
        setQuiet(false);
    }

  private:
    LogSink saved;
    LogLevel level;
};

TEST(Logging, SinkSwapCapturesAndRestores)
{
    LogStateGuard guard;
    std::vector<std::string> captured;
    setLogSink([&](LogLevel, const std::string &msg) {
        captured.push_back(msg);
    });
    warn("value is ", 42, " exactly");
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "value is 42 exactly");

    // Empty function restores the default stderr sink; nothing more
    // lands in the captured vector.
    setLogSink({});
    setQuiet(true); // keep the default sink silent for this emit
    warn("not captured");
    EXPECT_EQ(captured.size(), 1u);
}

TEST(Logging, LevelThresholdFiltersBelow)
{
    LogStateGuard guard;
    std::vector<LogLevel> seen;
    setLogSink([&](LogLevel level, const std::string &) {
        seen.push_back(level);
    });
    setLogLevel(LogLevel::Warn);
    debugLog("dropped");
    inform("dropped");
    warn("kept");
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], LogLevel::Warn);

    setLogLevel(LogLevel::Silent);
    warn("dropped");
    EXPECT_EQ(seen.size(), 1u);
}

TEST(Logging, QuietSuppressesBelowError)
{
    LogStateGuard guard;
    std::size_t hits = 0;
    setLogSink([&](LogLevel, const std::string &) { ++hits; });
    setQuiet(true);
    warn("suppressed");
    inform("suppressed");
    EXPECT_EQ(hits, 0u);
    logMessage(LogLevel::Error, "errors still pass");
    EXPECT_EQ(hits, 1u);
    setQuiet(false);
    warn("back");
    EXPECT_EQ(hits, 2u);
}

TEST(Logging, ParseAndNameRoundTrip)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("silent"), LogLevel::Silent);
    EXPECT_THROW(parseLogLevel("chatty"), FatalError);
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
}

} // namespace
