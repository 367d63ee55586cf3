#include "sweep/status.hh"

#include <cmath>
#include <sstream>

#include "obs/export.hh"
#include "obs/span.hh"
#include "obs/trace_clock.hh"

namespace irtherm::sweep
{

namespace
{

constexpr std::size_t kThroughputWindow = 64;

} // namespace

void
SweepStatusBoard::begin(const std::string &planName,
                        std::size_t totalJobs,
                        std::size_t pendingJobs,
                        std::size_t cachedJobs, std::size_t workers_)
{
    std::lock_guard<std::mutex> lock(mu);
    plan = planName;
    total = totalJobs;
    pending = pendingJobs;
    cached = cachedJobs;
    workers = workers_;
    beginSeconds = obs::monotonicSeconds();
}

void
SweepStatusBoard::setWorkers(std::size_t count)
{
    std::lock_guard<std::mutex> lock(mu);
    workers = count;
}

void
SweepStatusBoard::jobStarted()
{
    std::lock_guard<std::mutex> lock(mu);
    ++running;
}

void
SweepStatusBoard::jobFinished(JobStatus status)
{
    std::lock_guard<std::mutex> lock(mu);
    if (running > 0)
        --running;
    switch (status) {
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
    finishStamps.push_back(obs::monotonicSeconds());
    if (finishStamps.size() > kThroughputWindow)
        finishStamps.pop_front();
}

std::string
SweepStatusBoard::statusJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    const double now = obs::monotonicSeconds();
    const std::size_t done = ok + failed + timedOut + hung;
    const std::size_t remaining =
        pending > done ? pending - done : 0;

    // Trailing throughput: completions per second over the recent
    // window. Needs two stamps; a sweep that has not finished two
    // jobs yet reports eta null.
    double throughput = 0.0;
    if (finishStamps.size() >= 2) {
        const double dt = finishStamps.back() - finishStamps.front();
        if (dt > 0.0)
            throughput =
                static_cast<double>(finishStamps.size() - 1) / dt;
    }

    std::ostringstream os;
    os << "{\"schema\":\"irtherm.sweep.status.v1\""
       << ",\"plan\":\"" << obs::jsonEscape(plan) << "\""
       << ",\"wall_start_unix_s\":"
       << obs::jsonNumber(obs::wallClockStartUnixSeconds())
       << ",\"uptime_s\":" << obs::jsonNumber(now - beginSeconds)
       << ",\"workers\":" << workers << ",\"jobs\":{"
       << "\"total\":" << total << ",\"pending\":" << pending
       << ",\"cached\":" << cached << ",\"done\":" << done
       << ",\"ok\":" << ok << ",\"failed\":" << failed
       << ",\"timeout\":" << timedOut << ",\"hung\":" << hung
       << ",\"running\":" << running << ",\"remaining\":" << remaining
       << "}";
    os << ",\"throughput_jobs_per_s\":" << obs::jsonNumber(throughput);
    // Zero (or denormal-tiny) trailing throughput must never produce
    // an inf/nan ETA — "inf" is not even valid JSON. No estimate ->
    // an honest null.
    const double eta = throughput > 0.0
                           ? static_cast<double>(remaining) / throughput
                           : -1.0;
    if (throughput > 0.0 && std::isfinite(eta))
        os << ",\"eta_s\":" << obs::jsonNumber(eta);
    else
        os << ",\"eta_s\":null";

    // Per-thread live span paths from the global recorder. Idle
    // threads report an empty path; the watcher sees every worker.
    os << ",\"threads\":[";
    bool first = true;
    for (const obs::SpanRecorder::LivePath &p :
         obs::SpanRecorder::global().livePaths()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"index\":" << p.threadIndex << ",\"label\":\""
           << obs::jsonEscape(p.label) << "\",\"span_path\":\""
           << obs::jsonEscape(p.path) << "\"";
        if (!p.path.empty())
            os << ",\"open_for_s\":" << obs::jsonNumber(now - p.openSeconds);
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace irtherm::sweep
