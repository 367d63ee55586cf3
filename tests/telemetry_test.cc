/**
 * @file
 * Live-telemetry tests: hierarchical spans (nesting, thread
 * locality, trace_event export), percentile interpolation, the
 * Prometheus exposition grammar, the embedded HTTP server (socket
 * level), and the sweep status board document.
 *
 * Every test that touches the global SpanRecorder clears it first
 * and disables it on exit, so ordering between tests in this binary
 * does not matter.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/errors.hh"
#include "obs/export.hh"
#include "obs/http_server.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_clock.hh"
#include "sweep/json.hh"
#include "sweep/status.hh"

using namespace irtherm;

namespace
{

/** RAII: enable the global span recorder, restore off + empty. */
struct SpanScope
{
    SpanScope()
    {
        obs::SpanRecorder::global().clear();
        obs::SpanRecorder::global().setEnabled(true);
    }
    ~SpanScope()
    {
        obs::SpanRecorder::global().setEnabled(false);
        obs::SpanRecorder::global().clear();
    }
};

const obs::SpanRecord *
findSpan(const std::vector<obs::SpanRecord> &spans,
         const std::string &name)
{
    for (const obs::SpanRecord &s : spans) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

} // namespace

TEST(Span, NestsUnderThreadParentAndRecordsOnClose)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    SpanScope scope;
    auto &rec = obs::SpanRecorder::global();
    {
        obs::ScopedSpan outer("t.outer");
        outer.attr("k", 1);
        EXPECT_EQ(rec.size(), 0u) << "spans record on close, not open";
        {
            obs::ScopedSpan inner("t.inner");
        }
        EXPECT_EQ(rec.size(), 1u);
    }
    const std::vector<obs::SpanRecord> spans = rec.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const obs::SpanRecord *outer = findSpan(spans, "t.outer");
    const obs::SpanRecord *inner = findSpan(spans, "t.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->parentId, 0u);
    EXPECT_EQ(outer->depth, 0u);
    EXPECT_EQ(inner->parentId, outer->id);
    EXPECT_EQ(inner->depth, 1u);
    EXPECT_GE(inner->startSeconds, outer->startSeconds);
    EXPECT_GE(outer->durationSeconds, inner->durationSeconds);
    ASSERT_EQ(outer->attrs.size(), 1u);
    EXPECT_EQ(outer->attrs[0].key, "k");
}

TEST(Span, ParentStackIsThreadLocal)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    SpanScope scope;
    auto &rec = obs::SpanRecorder::global();
    obs::ScopedSpan outer("t.main_outer");
    std::thread worker([] {
        // Must NOT nest under the main thread's open span.
        obs::SpanRecorder::setThreadLabel("t-worker");
        obs::ScopedSpan other("t.worker_root");
    });
    worker.join();
    const std::vector<obs::SpanRecord> spans = rec.snapshot();
    const obs::SpanRecord *workerRoot =
        findSpan(spans, "t.worker_root");
    ASSERT_NE(workerRoot, nullptr);
    EXPECT_EQ(workerRoot->parentId, 0u);
    EXPECT_EQ(workerRoot->depth, 0u);

    bool labeled = false;
    for (const auto &[index, label] : rec.threadLabels()) {
        if (index == workerRoot->threadIndex && label == "t-worker")
            labeled = true;
    }
    EXPECT_TRUE(labeled) << "worker label must survive thread exit";
}

TEST(Span, DisabledRecorderCostsNothingAndRecordsNothing)
{
    auto &rec = obs::SpanRecorder::global();
    rec.clear();
    rec.setEnabled(false);
    {
        obs::ScopedSpan span("t.dark");
        span.attr("k", 1);
    }
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.recorded(), 0u);
}

TEST(Span, RingOverwritesOldestAndCountsDrops)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    SpanScope scope;
    auto &rec = obs::SpanRecorder::global();
    rec.setCapacity(4);
    for (int i = 0; i < 6; ++i) {
        obs::ScopedSpan span("t.s" + std::to_string(i));
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.recorded(), 6u);
    EXPECT_EQ(rec.dropped(), 2u);
    const std::vector<obs::SpanRecord> spans = rec.snapshot();
    EXPECT_EQ(spans.front().name, "t.s2");
    EXPECT_EQ(spans.back().name, "t.s5");
    rec.setCapacity(obs::SpanRecorder::kDefaultCapacity);
}

TEST(Span, TraceEventJsonIsValidAndPairsBeginEnd)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    SpanScope scope;
    {
        obs::ScopedSpan outer("t.export_outer");
        obs::ScopedSpan inner("t.export_inner");
        inner.attr("tier", 2);
    }
    const std::string doc = obs::spansToTraceJson(
        obs::SpanRecorder::global());
    const sweep::JsonValue root =
        sweep::parseJson(doc, "spans trace");
    ASSERT_TRUE(root.isObject());
    EXPECT_TRUE(root.at("wall_start_unix_s").isNumber());
    const sweep::JsonValue &events = root.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    // Every "B" must close with an "E" on the same tid, LIFO order.
    std::map<std::string, std::vector<std::string>> open;
    std::size_t durationEvents = 0;
    for (const sweep::JsonValue &e : events.items) {
        ASSERT_TRUE(e.isObject());
        const std::string ph = e.at("ph").text;
        if (ph != "B" && ph != "E")
            continue;
        ++durationEvents;
        const std::string tid =
            std::to_string(e.at("tid").number);
        EXPECT_GE(e.at("ts").number, 0.0);
        if (ph == "B") {
            open[tid].push_back(e.at("name").text);
        } else {
            ASSERT_FALSE(open[tid].empty())
                << "E without matching B: " << e.at("name").text;
            EXPECT_EQ(open[tid].back(), e.at("name").text)
                << "spans must close innermost-first";
            open[tid].pop_back();
        }
    }
    EXPECT_EQ(durationEvents, 4u); // 2 spans x (B + E)
    for (const auto &[tid, stack] : open)
        EXPECT_TRUE(stack.empty()) << "unclosed B on tid " << tid;
    EXPECT_NE(doc.find("\"t.export_inner\""), std::string::npos);
    EXPECT_NE(doc.find("\"tier\""), std::string::npos);
}

TEST(Span, TraceEventExportDrawsInstantsOnThreadTrack)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    SpanScope scope;
    std::thread worker([] {
        obs::SpanRecorder::setThreadLabel("t-eventer");
        obs::ScopedSpan span("t.with_instant");
        IRTHERM_EVENT("t.instant", {"x", 1.0});
    });
    worker.join();
    double workerTid = -1.0;
    for (const auto &[index, label] :
         obs::SpanRecorder::global().threadLabels()) {
        if (label == "t-eventer")
            workerTid = index;
    }
    const std::string doc =
        obs::spansToTraceJson(obs::SpanRecorder::global());
    const sweep::JsonValue root = sweep::parseJson(doc, "spans trace");
    const sweep::JsonValue *instant = nullptr;
    double spanId = -1.0;
    for (const sweep::JsonValue &e : root.at("traceEvents").items) {
        if (e.at("ph").text == "i" && e.at("name").text == "t.instant")
            instant = &e;
        if (e.at("ph").text == "B" &&
            e.at("name").text == "t.with_instant")
            spanId = e.at("args").at("id").number;
    }
    ASSERT_NE(instant, nullptr) << doc;
    // Thread-scoped, on the recording thread's track, parented under
    // the span open there, fields in args.
    EXPECT_EQ(instant->at("s").text, "t");
    EXPECT_EQ(instant->at("pid").number, 1.0);
    EXPECT_EQ(instant->at("tid").number, workerTid);
    EXPECT_EQ(instant->at("args").at("parent").number, spanId);
    EXPECT_EQ(instant->at("args").at("x").number, 1.0);
}

TEST(Span, SnapshotSinceReadsEachRecordOnce)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    SpanScope scope;
    auto &rec = obs::SpanRecorder::global();
    rec.setCapacity(4);
    const auto record = [](int from, int to) {
        for (int i = from; i < to; ++i)
            obs::SpanRecorder::recordInstant("t.rec", {{"i", i}});
    };
    // Record, ship, record, ship — the way a worker flushes.
    std::uint64_t watermark = 0;
    std::uint64_t lost = 0;
    std::vector<double> shipped;
    std::uint64_t dropped = 0;
    const auto ship = [&] {
        for (const obs::SpanRecord &r :
             rec.snapshotSince(watermark, &lost))
            shipped.push_back(r.attrs.at(0).num);
        dropped += lost;
    };
    record(0, 3);
    ship();
    ship(); // nothing new: nothing shipped twice
    record(3, 5);
    ship();
    // Six more overrun the 4-slot ring: 5 and 6 are overwritten
    // before the next ship and count as dropped.
    record(5, 11);
    ship();
    EXPECT_EQ(watermark, rec.recorded());
    EXPECT_EQ(dropped, 2u);
    const std::vector<double> expected = {0, 1, 2, 3, 4, 7, 8, 9, 10};
    EXPECT_EQ(shipped, expected);
    rec.setCapacity(obs::SpanRecorder::kDefaultCapacity);
}

TEST(Histogram, QuantilesInterpolateWithinBuckets)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.observe(static_cast<double>(i));
    // Exact at the extremes, monotone and within range in between.
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 1.0), 100.0);
    const double p50 = obs::histogramQuantile(h, 0.50);
    const double p95 = obs::histogramQuantile(h, 0.95);
    const double p99 = obs::histogramQuantile(h, 0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p99, 100.0);
    // log2 buckets are coarse; the interpolated median still has to
    // land in the right bucket neighbourhood.
    EXPECT_GT(p50, 25.0);
    EXPECT_LT(p50, 80.0);
    EXPECT_GT(p99, 60.0);

    obs::Histogram empty;
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(empty, 0.5), 0.0);
}

TEST(Export, TimerJsonCarriesPercentiles)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    obs::Timer &t = reg.timer("t.pct_time");
    for (int i = 0; i < 32; ++i)
        t.addNanos(1'000'000); // 1 ms
    const std::string doc = obs::metricsToJson(reg);
    EXPECT_NE(doc.find("\"p50_s\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"p95_s\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"p99_s\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"wall_start_unix_s\""), std::string::npos);
}

TEST(Export, PrometheusLinesFollowTheExpositionGrammar)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    reg.counter("t.requests").add(3);
    reg.gauge("t.depth").set(2.5);
    reg.timer("t.solve_time").addNanos(5'000'000);
    reg.histogram("t.step_s").observe(1e-3);

    const std::string text = obs::metricsToPrometheus(reg);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n') << "exposition must end in newline";

    std::istringstream is(text);
    std::string line;
    bool sawCounter = false, sawQuantile = false, sawBucket = false;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // "# HELP name ..." or "# TYPE name counter|gauge|..."
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                        line.rfind("# TYPE ", 0) == 0)
                << line;
            continue;
        }
        // sample line: name[{labels}] value
        const std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        const std::string name = line.substr(0, sp);
        ASSERT_FALSE(name.empty()) << line;
        EXPECT_TRUE(std::isalpha(
                        static_cast<unsigned char>(name[0])) ||
                    name[0] == '_')
            << line;
        for (char c : name) {
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == '{' || c == '}' ||
                        c == '"' || c == '=' || c == '.' ||
                        c == '+' || c == ',')
                << "bad metric-line character '" << c << "' in "
                << line;
        }
        if (line.rfind("irtherm_t_requests_total ", 0) == 0)
            sawCounter = true;
        if (name.find("quantile=") != std::string::npos)
            sawQuantile = true;
        if (name.find("_bucket{le=") != std::string::npos)
            sawBucket = true;
    }
    EXPECT_TRUE(sawCounter) << text;
    EXPECT_TRUE(sawQuantile) << text;
    EXPECT_TRUE(sawBucket) << text;
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

namespace
{

/** Blocking one-shot HTTP GET against 127.0.0.1:port. */
std::string
httpGet(int port, const std::string &target,
        const std::string &method = "GET")
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
    const std::string req = method + " " + target +
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

} // namespace

TEST(HttpServer, ServesRoutedPathsOverRealSockets)
{
    obs::MetricsRegistry reg;
    reg.counter("t.http_hits").add(7);
    obs::HttpServer server;
    server.route("/healthz", [] {
        return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                 "ok\n"};
    });
    server.route("/metrics", [&reg] {
        return obs::HttpResponse{
            200, "text/plain; version=0.0.4; charset=utf-8",
            obs::metricsToPrometheus(reg)};
    });
    server.start(0); // ephemeral port, 127.0.0.1
    ASSERT_TRUE(server.running());
    ASSERT_GT(server.port(), 0);

    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);
    EXPECT_NE(health.find("Content-Length: 3"), std::string::npos);

    if (obs::kMetricsEnabled) {
        const std::string metrics =
            httpGet(server.port(), "/metrics");
        EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
        EXPECT_NE(metrics.find("irtherm_t_http_hits_total 7"),
                  std::string::npos);
    }

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

    const std::string posted =
        httpGet(server.port(), "/healthz", "POST");
    EXPECT_NE(posted.find("HTTP/1.1 405"), std::string::npos);

    const std::string head = httpGet(server.port(), "/healthz", "HEAD");
    EXPECT_NE(head.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_EQ(head.find("\r\n\r\nok"), std::string::npos)
        << "HEAD must not carry a body";

    EXPECT_GE(server.requestCount(), 4u);
    server.stop();
    EXPECT_FALSE(server.running());
    server.stop(); // idempotent
}

TEST(HttpServer, RouteAfterStartThrows)
{
    obs::HttpServer server;
    server.route("/healthz", [] { return obs::HttpResponse{}; });
    server.start(0);
    EXPECT_THROW(
        server.route("/late", [] { return obs::HttpResponse{}; }),
        FatalError);
    server.stop();
}

namespace
{

/** Send raw bytes, then read the reply until the server closes. */
std::string
httpRaw(int port, const std::string &bytes)
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
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, 0);
        if (n <= 0)
            break; // server may stop reading once over the cap
        sent += static_cast<std::size_t>(n);
    }
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return reply;
}

} // namespace

TEST(HttpServer, ParallelClientsAllGetServed)
{
    obs::HttpServer server;
    server.route("/healthz", [] {
        return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                 "ok\n"};
    });
    server.start(0);
    const int port = server.port();

    constexpr int kThreads = 8;
    constexpr int kRequests = 5;
    std::vector<int> good(kThreads, 0);
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([port, t, &good] {
            for (int i = 0; i < kRequests; ++i) {
                const std::string reply = httpGet(port, "/healthz");
                if (reply.find("HTTP/1.1 200") != std::string::npos &&
                    reply.find("\r\n\r\nok\n") != std::string::npos)
                    ++good[t];
            }
        });
    }
    for (std::thread &c : clients)
        c.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(good[t], kRequests) << "client " << t;
    EXPECT_GE(server.requestCount(),
              static_cast<std::size_t>(kThreads * kRequests));
    server.stop();
}

TEST(HttpServer, MalformedRequestLineGets400)
{
    obs::HttpServer server;
    server.route("/healthz", [] {
        return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                 "ok\n"};
    });
    server.start(0);
    const std::string reply =
        httpRaw(server.port(), "BOGUS\r\n\r\n");
    EXPECT_NE(reply.find("HTTP/1.1 400"), std::string::npos);
    // The listener survives abuse: a normal request still works.
    const std::string after = httpGet(server.port(), "/healthz");
    EXPECT_NE(after.find("HTTP/1.1 200"), std::string::npos);
    server.stop();
}

TEST(HttpServer, OversizedRequestGets431)
{
    obs::HttpServer server;
    server.route("/healthz", [] {
        return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                 "ok\n"};
    });
    server.start(0);
    // A request line that never terminates and blows past the 16 KiB
    // cap must be rejected explicitly, not buffered forever.
    std::string huge = "GET /";
    huge.append(20000, 'a');
    const std::string reply = httpRaw(server.port(), huge);
    EXPECT_NE(reply.find("HTTP/1.1 431"), std::string::npos);
    const std::string after = httpGet(server.port(), "/healthz");
    EXPECT_NE(after.find("HTTP/1.1 200"), std::string::npos);
    server.stop();
}

TEST(HttpServer, SlowReaderDoesNotWedgeTheListener)
{
    obs::HttpServer server;
    server.route("/big", [] {
        return obs::HttpResponse{200,
                                 "application/octet-stream",
                                 std::string(8u << 20, 'x')};
    });
    server.route("/healthz", [] {
        return obs::HttpResponse{200, "text/plain; charset=utf-8",
                                 "ok\n"};
    });
    server.start(0);
    const int port = server.port();

    // A client that requests 8 MiB and never reads: the kernel send
    // buffer fills, the server blocks in send, and the per-connection
    // SO_SNDTIMEO must free the (single) listener thread.
    const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(slow, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string req = "GET /big HTTP/1.1\r\nHost: x\r\n"
                            "Connection: close\r\n\r\n";
    ASSERT_EQ(::send(slow, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    // Deliberately never recv() on `slow`.

    const std::string after = httpGet(port, "/healthz");
    EXPECT_NE(after.find("HTTP/1.1 200"), std::string::npos)
        << "slow reader wedged the listener";
    ::close(slow);
    server.stop();
}

TEST(SweepStatusBoard, EtaIsNullWithZeroThroughput)
{
    sweep::SweepStatusBoard board;
    board.begin("unit-plan", 10, 8, 2, 1);
    board.jobStarted();
    // No job has finished: the throughput window is empty, so the
    // ETA must be JSON null — never 0, Infinity, or NaN.
    const sweep::JsonValue doc =
        sweep::parseJson(board.statusJson(), "status");
    EXPECT_TRUE(doc.at("eta_s").isNull());
}

TEST(SweepStatusBoard, StatusJsonTracksCountsAndSchema)
{
    sweep::SweepStatusBoard board;
    board.begin("unit-plan", 10, 7, 3, 2);
    board.jobStarted();
    board.jobStarted();
    board.jobFinished(sweep::JobStatus::Ok);
    board.jobFinished(sweep::JobStatus::Failed);

    const sweep::JsonValue doc =
        sweep::parseJson(board.statusJson(), "status");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("schema").text, "irtherm.sweep.status.v1");
    EXPECT_EQ(doc.at("plan").text, "unit-plan");
    EXPECT_EQ(doc.at("workers").number, 2.0);
    const sweep::JsonValue &jobs = doc.at("jobs");
    EXPECT_EQ(jobs.at("total").number, 10.0);
    EXPECT_EQ(jobs.at("cached").number, 3.0);
    EXPECT_EQ(jobs.at("done").number, 2.0);
    EXPECT_EQ(jobs.at("ok").number, 1.0);
    EXPECT_EQ(jobs.at("failed").number, 1.0);
    EXPECT_EQ(jobs.at("running").number, 0.0);
    EXPECT_EQ(jobs.at("remaining").number, 5.0);
    EXPECT_TRUE(doc.at("threads").isArray());
    // Two completions give the throughput window its first rate.
    EXPECT_TRUE(doc.at("eta_s").isNumber() ||
                doc.at("eta_s").isNull());
}

TEST(TraceClock, SharedEpochIsMonotoneAndAnchored)
{
    const double a = obs::monotonicSeconds();
    const double b = obs::monotonicSeconds();
    EXPECT_GE(b, a);
    EXPECT_GE(a, 0.0);
    // The wall anchor is a plausible unix timestamp (after 2020).
    EXPECT_GT(obs::wallClockStartUnixSeconds(), 1.5e9);
}
