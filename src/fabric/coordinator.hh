/**
 * @file
 * Sweep-fabric coordinator: the process that owns the plan, the
 * journal, and the aggregates, and hands out job leases over HTTP.
 *
 * runCoordinator() runs the plan through the same SweepSession as
 * runSweep() (sweep/session.hh: one store and resume, queue, tally,
 * set of read-only routes and reports), but instead of executing jobs
 * on local threads it serves them to workers (`irtherm_cli worker
 * --connect`) through three POST endpoints on the embedded
 * obs/http_server:
 *
 *     POST /lease     {"worker": W, "max_jobs": N}
 *                  -> {"token": T, "ttl_s": S, "done": B,
 *                      "jobs": [{"hash": H, "settings": {...}}]}
 *     POST /renew     {"token": T} -> 200 {"ok": true, "ttl_s": S}
 *                                   | 410 (re-lease required)
 *     POST /complete  {"token": T, "worker": W, "results": [...]}
 *                  -> {"accepted": A, "duplicates": D, "done": B}
 *
 * plus the session's read-only telemetry routes (/status, /metrics,
 * /healthz, /aggregates, /dashboard). Jobs travel as their full
 * textual ScenarioSpec, so a worker needs nothing but the
 * coordinator's address — no plan file, no shared filesystem.
 *
 * Fleet observability (see fabric/fleet.hh): the coordinator mints a
 * per-sweep trace id; every lease grant carries a propagated trace
 * context ("trace": "<trace-id>-<lease-span-id>", echoed in the
 * X-Irtherm-Trace response header) that workers parent their span
 * trees under. Workers ship sealed span batches to `POST /spans`
 * (bounded, drop-counted) and piggyback metrics snapshots on
 * renew/complete; the coordinator merges spans into one
 * Perfetto-loadable Chrome trace (`GET /trace`, and
 * CoordinatorOptions::fleetTraceOut at exit), federates the
 * snapshots into `irtherm_fleet_*` series on /metrics, and serves
 * the fleet health board at `GET /fleet` (also inlined into
 * /status for the dashboard). A worker whose heartbeat goes silent
 * past the suspect threshold raises a `worker.suspect` event.
 *
 * Exactly-once journaling: the LeaseTable classifies every completed
 * report (first-wins); only Accepted results, stamped with their
 * lease provenance, reach SweepSession::record(), so a re-leased job
 * finished by both its original and replacement worker lands in the
 * journal exactly once. The shared content-addressed ResultCache
 * (when configured) plugs into the session through the same
 * SweepOptions hooks a local `--cache` sweep uses: the queue is
 * pre-filtered through it and Ok results are published to it, so
 * repeated sub-scenarios across plans are never re-simulated.
 *
 * Backpressure: CoordinatorOptions::admitRatePerSecond arms the
 * server's token bucket; a flood of lease/complete traffic sheds to
 * 429 + Retry-After (workers back off and retry) instead of queueing
 * unboundedly behind the listener thread.
 *
 * SIGINT/SIGTERM (via base/shutdown) drains: in-flight leases are
 * told "done" on their next pull, the server stops, the journal
 * flushes, the open segment seals, and a final aggregates checkpoint
 * is written — a later `--resume` continues where the fleet stopped.
 */

#ifndef IRTHERM_FABRIC_COORDINATOR_HH
#define IRTHERM_FABRIC_COORDINATOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "sweep/plan.hh"
#include "sweep/runner.hh"

namespace irtherm::fabric
{

struct CoordinatorOptions
{
    /** Output directory: journal, segments, checkpoint, reports. */
    std::string outDir = "sweep_out";
    /** Listen port; 0 picks an ephemeral one. */
    int port = 0;
    std::string bindAddress = "127.0.0.1";
    /** Lease TTL: a worker silent this long forfeits its jobs. */
    double leaseTtlSeconds = 10.0;
    /** Max jobs per lease batch (clamps the worker's request). */
    std::size_t leaseJobs = 4;
    /** Skip scenarios already present in the journal. */
    bool resume = false;
    /** Completed jobs per sealed columnar segment (see runner.hh). */
    std::size_t segmentJobs = 2048;
    bool writeReports = true;
    /** Shared content-addressed result cache directory; "" = off. */
    std::string cacheDir;
    /** Admission control: requests/s through the token bucket; 0
     *  disarms. Shed requests get 429 + Retry-After. */
    double admitRatePerSecond = 0.0;
    double admitBurst = 64.0;
    /** Write the merged fleet Chrome trace here at exit; "" = off.
     *  Setting it also enables span recording in this process. */
    std::string fleetTraceOut;
    /** Heartbeat age (s) past which a worker turns suspect; 0 picks
     *  max(2.5 x lease TTL, 5 s). */
    double suspectAfterSeconds = 0.0;
    /** Called with the bound port once the server is listening. */
    std::function<void(int)> onServerStart;
};

/** What a coordinated sweep did, plus fabric-level accounting. */
struct CoordinatorSummary
{
    sweep::SweepSummary sweep;
    std::size_t workersSeen = 0;
    std::size_t leasesGranted = 0;
    std::size_t leasesExpired = 0;
    /** Completed reports dropped as duplicates (exactly-once). */
    std::size_t duplicateCompletes = 0;
    /** Requests shed with 429 by admission control. */
    std::uint64_t requestsShed = 0;
    /** The per-sweep trace id every lease propagated. */
    std::string traceId;
    /** Worker spans merged into the fleet trace. */
    std::uint64_t spansMerged = 0;
    /** Spans shed because the fleet trace store was full. */
    std::uint64_t spansDropped = 0;
    /** worker.suspect transitions raised. */
    std::size_t suspectEvents = 0;
};

/** Serve @p plan to workers until every job completes (or shutdown
 *  is requested), then finalize the journal and reports. */
CoordinatorSummary runCoordinator(const sweep::SweepPlan &plan,
                                  const CoordinatorOptions &opts);

} // namespace irtherm::fabric

#endif // IRTHERM_FABRIC_COORDINATOR_HH
