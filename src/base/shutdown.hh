/**
 * @file
 * Cooperative process shutdown flag for SIGINT/SIGTERM.
 *
 * Long-running loops (the sweep scheduler, the fabric coordinator and
 * worker) poll shutdownRequested() at their claim points and drain
 * instead of dying mid-write: in-flight jobs land in the journal and
 * the reports are written before exit. The
 * handler itself only sets an atomic — everything async-signal-unsafe
 * happens on the polling thread.
 *
 * Installation is explicit (installShutdownHandlers(), typically from
 * main()) so library users and tests keep their own signal disposition
 * unless they opt in; tests drive the flag directly with
 * requestShutdown() / resetShutdown().
 */

#ifndef IRTHERM_BASE_SHUTDOWN_HH
#define IRTHERM_BASE_SHUTDOWN_HH

namespace irtherm
{

/** Route SIGINT and SIGTERM to the shutdown flag. Idempotent. */
void installShutdownHandlers();

/** True once a shutdown signal (or requestShutdown()) arrived. */
bool shutdownRequested();

/** Set the flag programmatically (tests, embedders). */
void requestShutdown();

/** Clear the flag (between tests / sequential runs in one process). */
void resetShutdown();

} // namespace irtherm

#endif // IRTHERM_BASE_SHUTDOWN_HH
