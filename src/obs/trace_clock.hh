/**
 * @file
 * Process-wide telemetry clock: one monotonic epoch that stamps
 * every span and instant (obs/span.hh), plus the wall-clock instant
 * that epoch corresponds to (exported as a top-level field so tools
 * can map monotonic offsets back to civil time, and shipped with
 * worker span batches so the fleet merge can rebase them).
 *
 * The epoch is captured once, on first use, from both
 * std::chrono::steady_clock and std::chrono::system_clock at the
 * same instant. It never resets — clearing the span recorder does
 * not move the timeline origin, so a cleared-and-refilled recorder
 * stays on the same timeline.
 */

#ifndef IRTHERM_OBS_TRACE_CLOCK_HH
#define IRTHERM_OBS_TRACE_CLOCK_HH

#include <chrono>

namespace irtherm::obs
{

/** The shared monotonic epoch (captured once per process). */
std::chrono::steady_clock::time_point traceEpoch();

/** Seconds from the shared epoch to @p t. */
double monotonicSeconds(std::chrono::steady_clock::time_point t);

/** Seconds from the shared epoch to now. */
double monotonicSeconds();

/** Unix wall-clock seconds at the instant the epoch was captured. */
double wallClockStartUnixSeconds();

} // namespace irtherm::obs

#endif // IRTHERM_OBS_TRACE_CLOCK_HH
