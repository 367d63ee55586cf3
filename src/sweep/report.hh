/**
 * @file
 * Aggregate sweep reporters.
 *
 * Three consumers, three formats:
 *  - report.csv: one row per expanded scenario with its axis values
 *    and thermal summary — spreadsheet / pandas fodder;
 *  - report.json (schema "irtherm.sweep.v1"): the machine-readable
 *    batch record, one result object per scenario in expansion
 *    order;
 *  - a Markdown summary table rendered from journal entries (the
 *    tools/sweep_report converter).
 */

#ifndef IRTHERM_SWEEP_REPORT_HH
#define IRTHERM_SWEEP_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "sweep/plan.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"

namespace irtherm::sweep
{

/**
 * CSV table over the expanded job list: name, hash, status, one
 * column per sweep axis, then the thermal summary columns.
 */
void writeSweepCsv(std::ostream &os, const SweepPlan &plan,
                   const std::vector<ScenarioSpec> &jobs,
                   const ResultStore &store);

/** The "irtherm.sweep.v1" JSON batch record. */
void writeSweepJson(std::ostream &os, const SweepPlan &plan,
                    const std::vector<ScenarioSpec> &jobs,
                    const ResultStore &store,
                    const SweepSummary &summary);

/**
 * Markdown summary table (hottest unit, peak T, gradient, CG
 * iterations, status per scenario) over journal entries.
 */
std::string renderMarkdownSummary(const std::vector<JobResult> &results,
                                  const std::string &title);

/**
 * Markdown "slowest jobs" table: the top `n` journal entries by CPU
 * seconds (from the per-job resources accounting), with wall time,
 * RSS growth, solver iterations, retries and fallback escalations.
 * Ties break on wall seconds, then scenario name, so the ordering is
 * stable across runs.
 */
std::string renderTopJobsMarkdown(const std::vector<JobResult> &results,
                                  std::size_t n);

/**
 * Markdown summary rendered from an `irtherm.sweep.aggregates.v1`
 * document (SweepAggregator::toJson() / the `/aggregates` endpoint)
 * instead of per-row journal entries: state counts, wall-time
 * quantiles, temperature spread, per-axis group-bys, and the
 * streaming top-slowest table. Size of the output depends on the
 * number of axis values and temperature bins, never on the number of
 * jobs. fatal() on a malformed document.
 */
std::string renderAggregatesMarkdown(const std::string &aggregatesJson,
                                     const std::string &title);

} // namespace irtherm::sweep

#endif // IRTHERM_SWEEP_REPORT_HH
