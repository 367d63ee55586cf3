/**
 * @file
 * Sweep-fabric worker: leases jobs from a coordinator, executes them
 * through the same JobExecutor that powers local sweeps, and reports
 * results back over POST /complete.
 *
 * A worker is stateless and needs nothing but the coordinator's
 * address: jobs arrive as full textual ScenarioSpecs, results leave
 * as the same JSONL objects the journal stores. Several workers on
 * several machines drain one plan together; a worker that dies
 * mid-lease simply stops renewing, its TTL lapses, and the
 * coordinator re-leases its jobs to someone else.
 *
 * Protocol behavior:
 *  - 429 + Retry-After from admission control → sleep and retry.
 *  - Empty grant, not done → poll again after pollSeconds.
 *  - 410 on renew (lease lost) → post what finished, drop the rest
 *    of the batch; the coordinator's first-wins journaling makes the
 *    overlap harmless.
 *  - "done": true → exit cleanly.
 *  - Transport failure before the first successful lease → retried
 *    for connectRetrySeconds (the coordinator may still be binding);
 *    after the first success it means the coordinator is gone → exit.
 *
 * Fault points (base/fault_injection): `worker.die` stops the worker
 * right after it leases (stranding the batch until TTL expiry);
 * `complete.dup` re-POSTs a successful /complete verbatim.
 *
 * Observability: each grant carries the coordinator's trace context
 * ("trace": "<trace-id>-<lease-span-id>"); the worker adopts it
 * (parenting its span tree under the lease span and echoing it in
 * the X-Irtherm-Trace request header), ships its sealed spans and
 * event instants (marked "instant": true) to POST /spans after each
 * report, and piggybacks a cumulative
 * WorkerMetricsSnapshot on every renew/complete body. A missing or
 * malformed context degrades to a locally minted trace id — the
 * observability path can never fail a job. Under
 * IRTHERM_ENABLE_METRICS=OFF no spans exist, so nothing ships.
 */

#ifndef IRTHERM_FABRIC_WORKER_HH
#define IRTHERM_FABRIC_WORKER_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sweep/runner.hh"

namespace irtherm::fabric
{

struct WorkerOptions
{
    /** Coordinator address (IPv4 dotted quad). */
    std::string host = "127.0.0.1";
    int port = 0;
    /** Worker id, stamped into result provenance; defaults to
     *  "worker-<pid>". */
    std::string name;
    /** Jobs to request per lease (coordinator may clamp). */
    std::size_t maxLeaseJobs = 4;
    /** Sleep between polls when the queue is momentarily empty. */
    double pollSeconds = 0.25;
    /** How long to retry the first connection before giving up. */
    double connectRetrySeconds = 10.0;
    /** Execution knobs (timeouts, retries, watchdog) — the same
     *  SweepOptions a local runSweep() would use. */
    sweep::SweepOptions exec;
};

struct WorkerSummary
{
    std::size_t executed = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timedOut = 0;
    std::size_t hung = 0;
    std::size_t leases = 0;
    std::size_t renewals = 0;
    /** Results the coordinator classified as duplicates. */
    std::size_t duplicates = 0;
    /** Requests shed with 429 (then retried). */
    std::size_t rejected = 0;
    /** True when the `worker.die` fault stopped this worker. */
    bool died = false;
    /** Trace id this worker worked under (adopted or locally
     *  minted). Empty if it never adopted one. */
    std::string traceId;
    /** Records (spans and instants) shipped on POST /spans. */
    std::uint64_t spansShipped = 0;
    /** Records lost before shipping (ring overwrite or failed POST). */
    std::uint64_t spansDropped = 0;
};

/** Lease, execute, and report until the coordinator says done (or
 *  shutdown is requested). Throws IoError if the coordinator cannot
 *  be reached within connectRetrySeconds. */
WorkerSummary runWorker(const WorkerOptions &opts);

} // namespace irtherm::fabric

#endif // IRTHERM_FABRIC_WORKER_HH
