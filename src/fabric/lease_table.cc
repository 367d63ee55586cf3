#include "fabric/lease_table.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm::fabric
{

LeaseTable::LeaseTable(std::size_t jobCount, double ttlSeconds)
    : ttl(ttlSeconds), complete_(jobCount, false),
      jobGrants_(jobCount, 0), jobExpiries_(jobCount, 0)
{
    for (std::size_t i = 0; i < jobCount; ++i)
        queue.push_back(i);
}

void
LeaseTable::sweepExpired()
{
    const Clock::time_point now = Clock::now();
    std::vector<std::string> lapsed;
    for (const auto &[token, lease] : active) {
        if (now > lease.deadline)
            lapsed.push_back(token);
    }
    for (const std::string &token : lapsed)
        expireLocked(token);
}

void
LeaseTable::expireLocked(const std::string &token)
{
    const auto it = active.find(token);
    if (it == active.end())
        return;
    for (const std::size_t job : it->second.jobs) {
        if (!complete_[job]) {
            queue.push_back(job);
            ++jobExpiries_[job];
        }
    }
    ++workerTotals[it->second.worker].second;
    IRTHERM_EVENT("fabric.lease.expired", {"token", token},
                  {"worker", it->second.worker},
                  {"requeued", it->second.jobs.size()});
    obs::MetricsRegistry::global()
        .counter("fabric.leases.expired")
        .add();
    active.erase(it);
    ++expired;
}

LeaseGrant
LeaseTable::lease(const std::string &worker, std::size_t maxJobs)
{
    std::lock_guard<std::mutex> lock(mu);
    sweepExpired();
    workers.insert(worker);

    LeaseGrant grant;
    grant.ttlSeconds = ttl;
    while (grant.jobs.size() < std::max<std::size_t>(1, maxJobs) &&
           !queue.empty()) {
        const std::size_t job = queue.front();
        queue.pop_front();
        // A job can sit in the queue twice after an expiry race
        // (original lease expired, job re-queued, then completed by
        // the original holder); skip anything already done.
        if (!complete_[job])
            grant.jobs.push_back(job);
    }
    if (grant.jobs.empty())
        return grant;

    grant.token = "lease-" + std::to_string(nextToken++);
    for (const std::size_t job : grant.jobs)
        ++jobGrants_[job];
    ++workerTotals[worker].first;
    ActiveLease &lease = active[grant.token];
    lease.worker = worker;
    lease.jobs = grant.jobs;
    lease.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(ttl));
    ++granted;
    obs::MetricsRegistry::global()
        .counter("fabric.leases.granted")
        .add();
    return grant;
}

bool
LeaseTable::renew(const std::string &token)
{
    std::lock_guard<std::mutex> lock(mu);
    sweepExpired();
    const auto it = active.find(token);
    if (it == active.end())
        return false;
    it->second.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(ttl));
    return true;
}

CompleteOutcome
LeaseTable::complete(const std::string &token, std::size_t job)
{
    std::lock_guard<std::mutex> lock(mu);
    sweepExpired();
    if (job >= complete_.size())
        return CompleteOutcome::Unknown;
    if (complete_[job]) {
        ++duplicates;
        obs::MetricsRegistry::global()
            .counter("fabric.completes.duplicate")
            .add();
        return CompleteOutcome::Duplicate;
    }
    complete_[job] = true;
    ++completedCount;
    // Strike the job from its lease (when still live) so a fully
    // reported lease retires instead of expiring later and
    // pointlessly re-queueing nothing.
    const auto it = active.find(token);
    if (it != active.end()) {
        auto &jobs = it->second.jobs;
        jobs.erase(std::remove(jobs.begin(), jobs.end(), job),
                   jobs.end());
        if (jobs.empty())
            active.erase(it);
    }
    return CompleteOutcome::Accepted;
}

bool
LeaseTable::expireToken(const std::string &token)
{
    std::lock_guard<std::mutex> lock(mu);
    if (active.find(token) == active.end())
        return false;
    expireLocked(token);
    return true;
}

bool
LeaseTable::allComplete() const
{
    std::lock_guard<std::mutex> lock(mu);
    return completedCount == complete_.size();
}

std::size_t
LeaseTable::remaining() const
{
    std::lock_guard<std::mutex> lock(mu);
    return complete_.size() - completedCount;
}

std::size_t
LeaseTable::completedJobs() const
{
    std::lock_guard<std::mutex> lock(mu);
    return completedCount;
}

std::size_t
LeaseTable::workersSeen() const
{
    std::lock_guard<std::mutex> lock(mu);
    return workers.size();
}

std::size_t
LeaseTable::leasesGranted() const
{
    std::lock_guard<std::mutex> lock(mu);
    return granted;
}

std::size_t
LeaseTable::leasesExpired() const
{
    std::lock_guard<std::mutex> lock(mu);
    return expired;
}

std::size_t
LeaseTable::duplicateCompletes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return duplicates;
}

std::size_t
LeaseTable::jobGrants(std::size_t job) const
{
    std::lock_guard<std::mutex> lock(mu);
    return job < jobGrants_.size() ? jobGrants_[job] : 0;
}

std::size_t
LeaseTable::jobExpiries(std::size_t job) const
{
    std::lock_guard<std::mutex> lock(mu);
    return job < jobExpiries_.size() ? jobExpiries_[job] : 0;
}

std::map<std::string, LeaseTable::WorkerLeases>
LeaseTable::workerLeases() const
{
    std::lock_guard<std::mutex> lock(mu);
    // const_cast-free lazy sweep is not available here; stale live
    // counts for a just-lapsed lease self-correct on the next
    // mutating call, which is fine for a health board.
    std::map<std::string, WorkerLeases> out;
    for (const std::string &w : workers)
        out[w]; // every worker appears, even if idle
    for (const auto &[worker, totals] : workerTotals) {
        out[worker].granted = totals.first;
        out[worker].expired = totals.second;
    }
    for (const auto &[token, lease] : active) {
        WorkerLeases &w = out[lease.worker];
        ++w.liveLeases;
        w.liveJobs += lease.jobs.size();
    }
    return out;
}

} // namespace irtherm::fabric
