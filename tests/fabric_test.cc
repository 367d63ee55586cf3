/**
 * @file
 * Tests of the distributed sweep fabric: HTTP POST plumbing, job
 * leases (expiry, re-lease, idempotent completes), the shared
 * content-addressed result cache, and whole coordinator + worker
 * fleets run in-process — including the two invariants the fabric
 * exists for: a dead worker's jobs re-lease with zero duplicate
 * completed work, and a distributed run's journal is equivalent to a
 * single-process run's.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "base/fault_injection.hh"
#include "base/shutdown.hh"
#include "fabric/coordinator.hh"
#include "fabric/http_client.hh"
#include "fabric/lease_table.hh"
#include "fabric/result_cache.hh"
#include "fabric/worker.hh"
#include "obs/http_server.hh"
#include "obs/span.hh"
#include "obs/trace_clock.hh"
#include "obs/trace_context.hh"
#include "sweep/json.hh"
#include "sweep/plan.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"

namespace irtherm::fabric
{
namespace
{

/** Fresh per-test output directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("irtherm_fabric_" + tag);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Journal rows keyed by hash, provenance and timing normalized so
 *  two runs of the same plan compare bit-for-bit on the physics. */
std::map<std::string, std::string>
normalizedJournal(const std::string &outDir)
{
    std::map<std::string, std::string> rows;
    std::ifstream in(
        (std::filesystem::path(outDir) / "journal.jsonl").string());
    EXPECT_TRUE(static_cast<bool>(in)) << outDir;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        sweep::JobResult r = sweep::JobResult::fromJsonLine(
            line, outDir + " line " + std::to_string(lineno));
        r.wallSeconds = 0.0;
        r.resources = sweep::JobResources{};
        r.worker.clear();
        r.leaseRenewals = 0;
        r.leaseExpiries = 0;
        r.reLeases = 0;
        // Duplicate hashes would clobber silently; assert instead.
        EXPECT_TRUE(rows.emplace(r.hash, r.toJsonLine()).second)
            << "duplicate journal row for " << r.hash;
    }
    return rows;
}

/**
 * A steady plan whose axis varies the grid resolution, so every job
 * has a distinct stack hash: no warm-start or superposition coupling
 * between jobs, hence per-job results that are bit-identical no
 * matter which worker (or process) executes them in what order.
 */
sweep::SweepPlan
distinctStackPlan()
{
    return sweep::SweepPlan::parse(
        R"({"name": "fabric-distinct",
            "base": {"floorplan": "preset:ev6",
                     "mode": "steady",
                     "power.uniform": 0.7,
                     "config": {"model_mode": "grid",
                                "grid_ny": 16}},
            "axes": {"config.grid_nx": [8, 12, 16, 20, 24, 32]}})",
        "fabric-distinct");
}

/** Run a coordinator and a worker fleet in-process; returns the
 *  coordinator summary once everyone has drained and joined. */
CoordinatorSummary
runFleet(const sweep::SweepPlan &plan, CoordinatorOptions copts,
         std::vector<WorkerOptions> workerOpts,
         std::vector<WorkerSummary> *workerSummaries = nullptr)
{
    std::promise<int> portPromise;
    std::future<int> portFuture = portPromise.get_future();
    copts.port = 0;
    copts.onServerStart = [&portPromise](int p) {
        portPromise.set_value(p);
    };
    CoordinatorSummary summary;
    std::thread coordinator(
        [&] { summary = runCoordinator(plan, copts); });
    const int port = portFuture.get();

    if (workerSummaries)
        workerSummaries->resize(workerOpts.size());
    std::vector<std::thread> fleet;
    for (std::size_t i = 0; i < workerOpts.size(); ++i) {
        WorkerOptions wo = workerOpts[i];
        wo.port = port;
        fleet.emplace_back([wo, i, workerSummaries] {
            const WorkerSummary ws = runWorker(wo);
            if (workerSummaries)
                (*workerSummaries)[i] = ws;
        });
    }
    for (std::thread &t : fleet)
        t.join();
    coordinator.join();
    return summary;
}

/** Send raw bytes to a local port and read the whole reply. */
std::string
rawRequest(int port, const std::string &bytes)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    std::string reply;
    char buf[2048];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return reply;
}

/** Every fabric test starts disarmed and with shutdown cleared. */
class Fabric : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultInjector::global().disarm();
        resetShutdown();
    }
    void TearDown() override
    {
        FaultInjector::global().disarm();
        resetShutdown();
    }
};

// ---------------------------------------------------------------
// HTTP server: POST bodies, limits, and error statuses
// ---------------------------------------------------------------

TEST(FabricHttp, PostBodyRoundTripsThroughHandler)
{
    obs::HttpServer server;
    server.route("POST", "/echo", [](const obs::HttpRequest &req) {
        EXPECT_EQ(req.method, "POST");
        return obs::HttpResponse{200, "application/json",
                                 "{\"got\":" +
                                     std::to_string(req.body.size()) +
                                     "}"};
    });
    server.start(0);
    const std::string body(1000, 'x');
    const HttpReply r =
        httpRequest("127.0.0.1", server.port(), "POST", "/echo", body);
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "{\"got\":1000}");
    server.stop();
}

TEST(FabricHttp, OversizedBodyRefusedWith413)
{
    obs::HttpServer server;
    server.setMaxBodyBytes(64);
    bool handlerRan = false;
    server.route("POST", "/sink",
                 [&handlerRan](const obs::HttpRequest &) {
                     handlerRan = true;
                     return obs::HttpResponse{200, "text/plain", "ok"};
                 });
    server.start(0);
    const HttpReply r = httpRequest("127.0.0.1", server.port(),
                                    "POST", "/sink",
                                    std::string(65, 'x'));
    EXPECT_EQ(r.status, 413);
    EXPECT_FALSE(handlerRan);
    // At the cap is fine.
    EXPECT_EQ(httpRequest("127.0.0.1", server.port(), "POST",
                          "/sink", std::string(64, 'x'))
                  .status,
              200);
    server.stop();
}

TEST(FabricHttp, MissingContentLengthGets411)
{
    obs::HttpServer server;
    server.route("POST", "/sink", [](const obs::HttpRequest &) {
        return obs::HttpResponse{200, "text/plain", "ok"};
    });
    server.start(0);
    const std::string reply = rawRequest(
        server.port(),
        "POST /sink HTTP/1.1\r\nHost: test\r\n\r\n");
    EXPECT_NE(reply.find("HTTP/1.1 411"), std::string::npos) << reply;
    server.stop();
}

TEST(FabricHttp, WrongMethodGets405WithAllowHeader)
{
    obs::HttpServer server;
    server.route("/status", [] {
        return obs::HttpResponse{200, "text/plain", "ok"};
    });
    server.route("POST", "/lease", [](const obs::HttpRequest &) {
        return obs::HttpResponse{200, "text/plain", "ok"};
    });
    server.start(0);
    const HttpReply onGetRoute = httpRequest(
        "127.0.0.1", server.port(), "POST", "/status", "{}");
    EXPECT_EQ(onGetRoute.status, 405);
    EXPECT_EQ(onGetRoute.header("Allow"), "GET, HEAD");
    const HttpReply onPostRoute =
        httpRequest("127.0.0.1", server.port(), "GET", "/lease");
    EXPECT_EQ(onPostRoute.status, 405);
    EXPECT_EQ(onPostRoute.header("Allow"), "POST");
    server.stop();
}

TEST(FabricHttp, AdmissionControlShedsWith429AndRetryAfter)
{
    obs::HttpServer server;
    server.route("/status", [] {
        return obs::HttpResponse{200, "text/plain", "ok"};
    });
    // One token, refilled at 1 req/s: the second immediate request
    // must shed.
    server.limitRequestRate(1.0, 1.0);
    server.start(0);
    EXPECT_EQ(
        httpRequest("127.0.0.1", server.port(), "GET", "/status")
            .status,
        200);
    const HttpReply shed =
        httpRequest("127.0.0.1", server.port(), "GET", "/status");
    EXPECT_EQ(shed.status, 429);
    EXPECT_FALSE(shed.header("Retry-After").empty());
    EXPECT_GE(std::atof(shed.header("Retry-After").c_str()), 1.0);
    EXPECT_GE(server.shedCount(), 1u);
    server.stop();
}

// ---------------------------------------------------------------
// Lease table
// ---------------------------------------------------------------

TEST(LeaseTable, GrantCompleteLifecycle)
{
    LeaseTable table(3, 10.0);
    EXPECT_FALSE(table.allComplete());
    EXPECT_EQ(table.remaining(), 3u);

    const LeaseGrant g = table.lease("w1", 2);
    ASSERT_EQ(g.jobs.size(), 2u);
    EXPECT_FALSE(g.token.empty());
    EXPECT_DOUBLE_EQ(g.ttlSeconds, 10.0);
    EXPECT_TRUE(table.renew(g.token));

    EXPECT_EQ(table.complete(g.token, g.jobs[0]),
              CompleteOutcome::Accepted);
    EXPECT_EQ(table.complete(g.token, g.jobs[1]),
              CompleteOutcome::Accepted);
    // Re-reporting a completed job is a duplicate, not an error.
    EXPECT_EQ(table.complete(g.token, g.jobs[0]),
              CompleteOutcome::Duplicate);
    EXPECT_EQ(table.duplicateCompletes(), 1u);

    const LeaseGrant g2 = table.lease("w2", 8);
    ASSERT_EQ(g2.jobs.size(), 1u);
    EXPECT_EQ(table.complete(g2.token, g2.jobs[0]),
              CompleteOutcome::Accepted);
    EXPECT_TRUE(table.allComplete());
    EXPECT_EQ(table.workersSeen(), 2u);
    // Out-of-range job index from a confused client.
    EXPECT_EQ(table.complete(g2.token, 99), CompleteOutcome::Unknown);
}

TEST(LeaseTable, ExpiredLeaseRequeuesJobsAndFirstCompleteWins)
{
    LeaseTable table(2, 0.05);
    const LeaseGrant dead = table.lease("w1", 2);
    ASSERT_EQ(dead.jobs.size(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));

    // TTL lapsed: the jobs must be re-leasable, the old token dead.
    const LeaseGrant replacement = table.lease("w2", 2);
    ASSERT_EQ(replacement.jobs.size(), 2u);
    EXPECT_FALSE(table.renew(dead.token));
    EXPECT_GE(table.leasesExpired(), 1u);

    // Replacement finishes both; the original worker's late reports
    // (it did the work too) are duplicates — journaled zero times.
    EXPECT_EQ(table.complete(replacement.token, dead.jobs[0]),
              CompleteOutcome::Accepted);
    EXPECT_EQ(table.complete(replacement.token, dead.jobs[1]),
              CompleteOutcome::Accepted);
    EXPECT_EQ(table.complete(dead.token, dead.jobs[0]),
              CompleteOutcome::Duplicate);
    EXPECT_EQ(table.complete(dead.token, dead.jobs[1]),
              CompleteOutcome::Duplicate);
    EXPECT_TRUE(table.allComplete());
    EXPECT_EQ(table.completedJobs(), 2u);
}

TEST(LeaseTable, CompleteAfterExpiryIsAcceptedWhenFirst)
{
    // A worker that finished after its lease lapsed still did the
    // work; dropping the report would force a pointless re-run.
    LeaseTable table(1, 0.05);
    const LeaseGrant g = table.lease("w1", 1);
    ASSERT_EQ(g.jobs.size(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(table.complete(g.token, g.jobs[0]),
              CompleteOutcome::Accepted);
    EXPECT_TRUE(table.allComplete());
}

TEST(LeaseTable, ExpireTokenForcesRelease)
{
    LeaseTable table(1, 60.0);
    const LeaseGrant g = table.lease("w1", 1);
    ASSERT_EQ(g.jobs.size(), 1u);
    EXPECT_TRUE(table.expireToken(g.token));
    EXPECT_FALSE(table.expireToken(g.token)); // already gone
    EXPECT_FALSE(table.renew(g.token));
    const LeaseGrant g2 = table.lease("w2", 1);
    EXPECT_EQ(g2.jobs, g.jobs);
}

// ---------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------

TEST(ResultCache, RoundTripsOkResultsAndEvictsCorruptEntries)
{
    const std::string dir = freshDir("cache");
    ResultCache cache(dir);

    sweep::JobResult r;
    r.hash = "00000000deadbeef";
    r.name = "cached-job";
    r.status = sweep::JobStatus::Ok;
    r.peakCelsius = 91.53125;
    r.gradientKelvin = 17.25;
    r.hottestUnit = "IntReg";
    r.cgIterations = 42;
    cache.store(r);

    sweep::JobResult out;
    ASSERT_TRUE(cache.lookup("00000000deadbeef", out));
    EXPECT_EQ(out.name, "cached-job");
    EXPECT_EQ(out.peakCelsius, r.peakCelsius); // exact, %.17g round-trip
    EXPECT_EQ(out.cgIterations, 42u);
    EXPECT_FALSE(cache.lookup("ffffffffffffffff", out));

    // Failed results must not be published.
    sweep::JobResult bad = r;
    bad.hash = "1111111111111111";
    bad.status = sweep::JobStatus::Failed;
    cache.store(bad);
    EXPECT_FALSE(cache.lookup("1111111111111111", out));

    // A corrupt entry is evicted, not fatal.
    {
        std::ofstream f(std::filesystem::path(dir) /
                        "2222222222222222.json");
        f << "{\"hash\": truncated";
    }
    EXPECT_FALSE(cache.lookup("2222222222222222", out));
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(dir) / "2222222222222222.json"));
}

// ---------------------------------------------------------------
// Coordinator + worker fleets (in-process)
// ---------------------------------------------------------------

TEST_F(Fabric, TwoWorkerJournalMatchesSingleProcessRun)
{
    const sweep::SweepPlan plan = distinctStackPlan();

    // Reference: plain single-process sweep.
    sweep::SweepOptions solo;
    solo.outDir = freshDir("equiv_solo");
    solo.workers = 1;
    solo.writeReports = false;
    const sweep::SweepSummary ref = sweep::runSweep(plan, solo);
    ASSERT_EQ(ref.ok, ref.total);

    // Same plan through a coordinator and two workers.
    CoordinatorOptions copts;
    copts.outDir = freshDir("equiv_fabric");
    copts.leaseJobs = 2;
    copts.writeReports = false;
    WorkerOptions wa, wb;
    wa.name = "wa";
    wb.name = "wb";
    const CoordinatorSummary csum = runFleet(plan, copts, {wa, wb});
    EXPECT_EQ(csum.sweep.ok, ref.total);
    EXPECT_EQ(csum.workersSeen, 2u);
    EXPECT_EQ(csum.duplicateCompletes, 0u);

    // Journals equivalent modulo provenance, timing, and row order.
    const auto a = normalizedJournal(solo.outDir);
    const auto b = normalizedJournal(copts.outDir);
    ASSERT_EQ(a.size(), plan.jobCount());
    ASSERT_EQ(b.size(), plan.jobCount());
    for (const auto &[hash, row] : a) {
        const auto it = b.find(hash);
        ASSERT_NE(it, b.end()) << hash;
        EXPECT_EQ(row, it->second) << hash;
    }
}

TEST_F(Fabric, DeadWorkerJobsReleaseWithZeroDuplicateWork)
{
    const sweep::SweepPlan plan = distinctStackPlan();
    CoordinatorOptions copts;
    copts.outDir = freshDir("die_fabric");
    // Short TTL so the dead worker's lease lapses within the test.
    copts.leaseTtlSeconds = 0.3;
    copts.leaseJobs = 3;
    copts.writeReports = false;

    // The victim leases a batch and dies before completing it.
    FaultInjector::global().arm("worker.die:match=victim");
    WorkerOptions victim;
    victim.name = "victim";
    WorkerOptions survivor;
    survivor.name = "survivor";
    std::vector<WorkerSummary> workers;
    const CoordinatorSummary csum =
        runFleet(plan, copts, {victim, survivor}, &workers);

    EXPECT_TRUE(workers[0].died);
    EXPECT_EQ(workers[0].executed, 0u);
    // Every job still completed, none twice, and the victim's lease
    // demonstrably expired and re-leased.
    EXPECT_EQ(csum.sweep.ok, plan.jobCount());
    EXPECT_GE(csum.leasesExpired, 1u);
    EXPECT_EQ(normalizedJournal(copts.outDir).size(),
              plan.jobCount());
}

TEST_F(Fabric, DuplicateCompletePostIsIdempotent)
{
    const sweep::SweepPlan plan = distinctStackPlan();
    CoordinatorOptions copts;
    copts.outDir = freshDir("dup_fabric");
    copts.leaseJobs = 2;
    copts.writeReports = false;

    // Every batch is re-POSTed verbatim after a successful complete.
    FaultInjector::global().arm("complete.dup:count=100");
    std::vector<WorkerSummary> workers;
    const CoordinatorSummary csum =
        runFleet(plan, copts, {WorkerOptions{}}, &workers);

    EXPECT_EQ(csum.sweep.ok, plan.jobCount());
    EXPECT_GE(csum.duplicateCompletes, plan.jobCount());
    EXPECT_GE(workers[0].duplicates, plan.jobCount());
    // The journal holds each job exactly once (normalizedJournal
    // asserts on duplicate hashes).
    EXPECT_EQ(normalizedJournal(copts.outDir).size(),
              plan.jobCount());
}

TEST_F(Fabric, LostLeaseRenewGets410AndJobsStillCompleteOnce)
{
    const sweep::SweepPlan plan = distinctStackPlan();
    CoordinatorOptions copts;
    copts.outDir = freshDir("lost_fabric");
    // Tiny TTL forces a renew before each job; the armed fault makes
    // the coordinator forget the first renewed lease.
    copts.leaseTtlSeconds = 0.01;
    copts.leaseJobs = 3;
    copts.writeReports = false;
    FaultInjector::global().arm("lease.lost");

    const CoordinatorSummary csum =
        runFleet(plan, copts, {WorkerOptions{}, WorkerOptions{}});
    EXPECT_EQ(csum.sweep.ok, plan.jobCount());
    EXPECT_GE(csum.leasesExpired, 1u);
    EXPECT_EQ(normalizedJournal(copts.outDir).size(),
              plan.jobCount());
}

TEST_F(Fabric, SharedCacheHitIsBitForBitIdenticalToDirectRun)
{
    const sweep::SweepPlan plan = distinctStackPlan();
    const std::string cacheDir = freshDir("cache_shared");

    // Run A: direct simulation, no cache anywhere.
    sweep::SweepOptions direct;
    direct.outDir = freshDir("cache_direct");
    direct.workers = 1;
    direct.writeReports = false;
    ASSERT_EQ(sweep::runSweep(plan, direct).ok, plan.jobCount());

    // Run B: populates the shared cache while simulating.
    {
        ResultCache cache(cacheDir);
        sweep::SweepOptions fill;
        fill.outDir = freshDir("cache_fill");
        fill.workers = 1;
        fill.writeReports = false;
        fill.sharedCacheStore = [&cache](const sweep::JobResult &r) {
            cache.store(r);
        };
        const sweep::SweepSummary s = sweep::runSweep(plan, fill);
        ASSERT_EQ(s.ok, plan.jobCount());
        ASSERT_EQ(s.sharedCacheHits, 0u);
    }

    // Run C: fresh outDir, answered entirely from the cache.
    ResultCache cache(cacheDir);
    sweep::SweepOptions cached;
    cached.outDir = freshDir("cache_replay");
    cached.workers = 1;
    cached.writeReports = false;
    cached.sharedCacheLookup = [&cache](const std::string &hash,
                                        sweep::JobResult &out) {
        return cache.lookup(hash, out);
    };
    const sweep::SweepSummary s = sweep::runSweep(plan, cached);
    EXPECT_EQ(s.sharedCacheHits, plan.jobCount());
    EXPECT_EQ(s.executed, 0u);

    // Cache-answered journal ≡ direct-simulation journal, bit for
    // bit on every physical field (%.17g doubles round-trip exactly).
    const auto a = normalizedJournal(direct.outDir);
    const auto c = normalizedJournal(cached.outDir);
    ASSERT_EQ(c.size(), a.size());
    for (const auto &[hash, row] : a) {
        const auto it = c.find(hash);
        ASSERT_NE(it, c.end()) << hash;
        EXPECT_EQ(row, it->second) << hash;
    }
}

TEST_F(Fabric, CoordinatorAnswersRepeatedPlanFromCache)
{
    const sweep::SweepPlan plan = distinctStackPlan();
    const std::string cacheDir = freshDir("cache_coord");

    // First fleet populates the cache.
    CoordinatorOptions first;
    first.outDir = freshDir("coord_first");
    first.cacheDir = cacheDir;
    first.writeReports = false;
    ASSERT_EQ(
        runFleet(plan, first, {WorkerOptions{}}).sweep.ok,
        plan.jobCount());

    // Re-running the plan needs no workers at all: every job is
    // answered from the shared cache before the server even matters.
    CoordinatorOptions second;
    second.outDir = freshDir("coord_second");
    second.cacheDir = cacheDir;
    second.writeReports = false;
    const CoordinatorSummary csum = runFleet(plan, second, {});
    EXPECT_EQ(csum.sweep.sharedCacheHits, plan.jobCount());
    EXPECT_EQ(csum.sweep.executed, 0u);
    EXPECT_EQ(normalizedJournal(second.outDir).size(),
              plan.jobCount());
}

// ---------------------------------------------------------------
// Fleet observability: trace propagation and degradation
// ---------------------------------------------------------------

TEST_F(Fabric, TraceContextPropagatesFromLeaseToMergedTrace)
{
    const sweep::SweepPlan plan = distinctStackPlan();
    CoordinatorOptions copts;
    copts.outDir = freshDir("trace_fabric");
    copts.writeReports = false;
    // The probe below leases a job it never completes; a short TTL
    // hands it back to the real worker quickly.
    copts.leaseTtlSeconds = 0.5;
    copts.port = 0;
    std::promise<int> portPromise;
    std::future<int> portFuture = portPromise.get_future();
    copts.onServerStart = [&portPromise](int p) {
        portPromise.set_value(p);
    };
    CoordinatorSummary csum;
    std::thread coordinator(
        [&] { csum = runCoordinator(plan, copts); });
    const int port = portFuture.get();

    // Socket level: a lease grant carries the sweep's trace context
    // in the JSON body AND the X-Irtherm-Trace response header, and
    // the two agree.
    const HttpReply grant =
        httpRequest("127.0.0.1", port, "POST", "/lease",
                    "{\"worker\":\"probe\",\"max_jobs\":1}");
    ASSERT_EQ(grant.status, 200);
    const std::string headerCtx = grant.header("x-irtherm-trace");
    EXPECT_TRUE(obs::parseTraceContext(headerCtx).valid())
        << headerCtx;
    const std::size_t at = grant.body.find("\"trace\":\"");
    ASSERT_NE(at, std::string::npos) << grant.body;
    const std::string bodyCtx = grant.body.substr(at + 9, 33);
    EXPECT_EQ(bodyCtx, headerCtx);
    const obs::TraceContext ctx = obs::parseTraceContext(bodyCtx);
    ASSERT_TRUE(ctx.valid()) << bodyCtx;

    // Ship a synthetic span batch under the granted context; the
    // coordinator must accept and merge it.
    const std::string batch =
        "{\"worker\":\"probe\",\"trace\":\"" + ctx.traceId +
        "\",\"lease_span\":\"" + obs::spanIdHex(ctx.spanId) +
        "\",\"wall_epoch_unix_s\":" +
        std::to_string(obs::wallClockStartUnixSeconds()) +
        ",\"dropped\":0,\"spans\":[{\"id\":99,\"parent\":0,"
        "\"tid\":1,\"depth\":0,\"name\":\"probe.unit\","
        "\"start_s\":0.001,\"dur_s\":0.002}]}";
    const HttpReply shipped =
        httpRequest("127.0.0.1", port, "POST", "/spans", batch);
    EXPECT_EQ(shipped.status, 200);
    EXPECT_NE(shipped.body.find("\"accepted\":1"),
              std::string::npos)
        << shipped.body;

    // Federation surfaces: /fleet JSON and fleet.* Prometheus
    // series both know about the probe.
    const HttpReply fleet =
        httpRequest("127.0.0.1", port, "GET", "/fleet", "");
    EXPECT_EQ(fleet.status, 200);
    EXPECT_NE(fleet.body.find("irtherm.fleet.v1"),
              std::string::npos);
    EXPECT_NE(fleet.body.find("\"probe\""), std::string::npos);
    const HttpReply prom =
        httpRequest("127.0.0.1", port, "GET", "/metrics", "");
    EXPECT_NE(prom.body.find("irtherm_fleet_workers"),
              std::string::npos);

    // The live merged trace already holds the probe's track.
    const HttpReply live =
        httpRequest("127.0.0.1", port, "GET", "/trace", "");
    EXPECT_EQ(live.status, 200);
    EXPECT_NE(live.body.find("probe.unit"), std::string::npos);
    EXPECT_NE(live.body.find("\"trace_id\":\"" + ctx.traceId),
              std::string::npos);

    // A real worker drains the plan (the probe's lease lapses and
    // re-leases) and must adopt the same sweep trace id.
    WorkerOptions wo;
    wo.port = port;
    wo.name = "drainer";
    WorkerSummary wsum;
    std::thread worker([&] { wsum = runWorker(wo); });
    worker.join();
    coordinator.join();

    EXPECT_EQ(csum.traceId, ctx.traceId);
    EXPECT_EQ(wsum.traceId, ctx.traceId);
    EXPECT_GE(csum.spansMerged, 1u);
    EXPECT_EQ(csum.sweep.ok, plan.jobCount());
}

TEST_F(Fabric, WorkerEventsLandOnTheWorkerTrackOfTheMergedTrace)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const sweep::SweepPlan plan = distinctStackPlan();
    CoordinatorOptions copts;
    copts.outDir = freshDir("events_fabric");
    copts.writeReports = false;
    copts.fleetTraceOut = copts.outDir + "/fleet_trace.json";
    WorkerOptions wo;
    wo.name = "eventer";
    ASSERT_EQ(runFleet(plan, copts, {wo}).sweep.ok, plan.jobCount());
    obs::SpanRecorder::global().setEnabled(false);
    obs::SpanRecorder::global().clear();

    std::ifstream in(copts.fleetTraceOut);
    const std::string body((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const sweep::JsonValue doc = sweep::parseJson(body, "fleet trace");
    double workerPid = -1.0;
    for (const sweep::JsonValue &e : doc.at("traceEvents").items) {
        if (e.at("name").text == "process_name" &&
            e.at("args").at("name").text == "eventer")
            workerPid = e.at("pid").number;
    }
    ASSERT_GT(workerPid, 1.0) << "no process track for the worker";
    const auto hasInstant = [&](const std::string &name, double pid) {
        for (const sweep::JsonValue &e : doc.at("traceEvents").items) {
            if (e.at("ph").text == "i" && e.at("name").text == name &&
                e.at("pid").number == pid)
                return true;
        }
        return false;
    };
    // The worker's own events, shipped in its /spans batches (the
    // done instant in the final flush), and the coordinator's grant
    // on pid 1.
    EXPECT_TRUE(hasInstant("fabric.worker.lease", workerPid));
    EXPECT_TRUE(hasInstant("fabric.worker.done", workerPid));
    EXPECT_TRUE(hasInstant("fabric.lease.granted", 1.0));
}

TEST_F(Fabric, MalformedTraceContextDegradesToLocalTrace)
{
    const sweep::SweepPlan plan = distinctStackPlan();
    const std::vector<sweep::ScenarioSpec> jobs = plan.expand();
    ASSERT_FALSE(jobs.empty());

    // A fake coordinator whose grant carries a corrupt trace
    // context. The worker must degrade to a locally minted trace —
    // never fail the job.
    obs::HttpServer server;
    std::atomic<int> leases{0};
    std::string completeCtx;
    server.route(
        "POST", "/lease", [&](const obs::HttpRequest &) {
            if (leases++ > 0)
                return obs::HttpResponse{
                    200, "application/json",
                    "{\"done\":true,\"jobs\":[]}"};
            std::string body =
                "{\"token\":\"t1\",\"ttl_s\":30,"
                "\"trace\":\"zz-not-a-context\","
                "\"jobs\":[{\"settings\":{";
            bool first = true;
            for (const auto &[k, v] : jobs[0].settings()) {
                if (!first)
                    body += ',';
                first = false;
                body += "\"" + k + "\":\"" + v + "\"";
            }
            body += "}}]}";
            return obs::HttpResponse{200, "application/json",
                                     body};
        });
    server.route("POST", "/complete",
                 [&](const obs::HttpRequest &req) {
                     completeCtx = req.header(obs::kTraceHeaderName);
                     EXPECT_NE(req.body.find("\"results\""),
                               std::string::npos);
                     return obs::HttpResponse{
                         200, "application/json",
                         "{\"duplicates\":0}"};
                 });
    server.route("POST", "/spans", [](const obs::HttpRequest &) {
        return obs::HttpResponse{200, "application/json",
                                 "{\"accepted\":0}"};
    });
    server.start(0);

    WorkerOptions wo;
    wo.port = server.port();
    wo.name = "degraded";
    const WorkerSummary ws = runWorker(wo);
    server.stop();

    // The job ran to completion despite the corrupt context...
    EXPECT_EQ(ws.ok, 1u);
    EXPECT_EQ(ws.failed + ws.timedOut + ws.hung, 0u);
    // ...under a locally minted (well-formed) trace id, which also
    // rode the /complete request as a parseable header.
    const obs::TraceContext localCtx{ws.traceId, 0};
    EXPECT_TRUE(localCtx.valid()) << ws.traceId;
    EXPECT_TRUE(obs::parseTraceContext(completeCtx).valid())
        << completeCtx;
    EXPECT_EQ(completeCtx.substr(0, 16), ws.traceId);
}

} // namespace
} // namespace irtherm::fabric
