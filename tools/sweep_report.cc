/**
 * @file
 * sweep_report — render a sweep journal as a Markdown summary.
 *
 * Reads the artifacts a sweep run left behind and writes a Markdown
 * report. Small journals get one table row per scenario (status,
 * hottest unit, peak temperature, across-die gradient, CG
 * iterations, warm-start flag, wall time); large journals switch to
 * the aggregates summary (state counts, wall-time quantiles,
 * temperature spread, per-axis group-bys, slowest jobs) whose size
 * does not grow with the job count. Paste-able into a PR or lab
 * notebook.
 *
 * The report comes from one scan of the journal (sweep::readJournal),
 * which yields the rows, deduplicated by scenario hash, and the
 * aggregates together.
 *
 * Unparsable journal lines (truncated flush, disk corruption) do not
 * abort the report: each one is diagnosed on stderr with its path,
 * line number, and parse failure reason, the line is skipped, and the
 * tool exits 5 so scripts notice the journal was damaged. `--strict`
 * instead stops at the first one and exits 1.
 *
 * --top N appends a "slowest jobs" table ranked by the per-job CPU
 * seconds recorded in the journal's resources block (ties break on
 * wall time, then name, so the order is stable across reruns).
 *
 * usage: sweep_report <journal.jsonl | sweep-out-dir> [-o <file>]
 *                     [--title <text>] [--top <n>] [--strict]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/errors.hh"
#include "sweep/report.hh"
#include "sweep/result_store.hh"

using namespace irtherm;

namespace
{

// Exit codes (also in --help): scripts branch on these.
constexpr int kExitOk = 0;          ///< report written
constexpr int kExitError = 1;       ///< unexpected fatal error
constexpr int kExitUsage = 2;       ///< bad command line
constexpr int kExitMissing = 3;     ///< journal file does not exist
constexpr int kExitEmpty = 4;       ///< journal has no entries
constexpr int kExitSkipped = 5;     ///< report written, lines skipped

/**
 * Above this many scenarios the per-row table stops being a report
 * and becomes a data dump; switch to the aggregates summary.
 */
constexpr std::size_t kRowTableLimit = 500;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: sweep_report <journal.jsonl | sweep-out-dir> "
        "[-o <file>] [--title <text>] [--top <n>] [--strict]\n"
        "renders a sweep journal as a Markdown summary\n"
        "\n"
        "  -o <file>      write Markdown here instead of stdout\n"
        "  --title <text> heading for the summary table\n"
        "  --top <n>      append the n slowest jobs by CPU time "
        "(from the journal's resources accounting)\n"
        "  --strict       treat any unparsable journal line as "
        "fatal\n"
        "\n"
        "journals with more than %zu scenarios report via the "
        "streaming aggregates\n(state counts, quantiles, per-axis "
        "group-bys) instead of one row per job\n"
        "\n"
        "exit codes:\n"
        "  0  report written, every line parsed\n"
        "  1  unexpected error (I/O failure, --strict parse error)\n"
        "  2  bad command line\n"
        "  3  journal file does not exist\n"
        "  4  journal exists but holds no entries\n"
        "  5  report written, but unparsable lines were skipped\n",
        kRowTableLimit);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::string inputPath;
        std::string outPath;
        std::string title;
        std::size_t topN = 0;
        bool strict = false;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    configError("missing value after ", arg);
                return argv[++i];
            };
            if (arg == "-o") {
                outPath = value();
            } else if (arg == "--title") {
                title = value();
            } else if (arg == "--top") {
                const std::string v = value();
                char *end = nullptr;
                const double n = std::strtod(v.c_str(), &end);
                if (end == v.c_str() || *end != '\0' || n < 1.0 ||
                    n != std::floor(n))
                    configError("--top wants a positive integer, "
                                "got '", v, "'");
                topN = static_cast<std::size_t>(n);
            } else if (arg == "--strict") {
                strict = true;
            } else if (arg == "-h" || arg == "--help") {
                usage();
                return kExitOk;
            } else if (!arg.empty() && arg[0] == '-') {
                std::fprintf(stderr,
                             "sweep_report: unknown argument '%s'\n",
                             arg.c_str());
                usage();
                return kExitUsage;
            } else if (inputPath.empty()) {
                inputPath = arg;
            } else {
                std::fprintf(
                    stderr,
                    "sweep_report: unexpected argument '%s'\n",
                    arg.c_str());
                usage();
                return kExitUsage;
            }
        }
        if (inputPath.empty()) {
            usage();
            return kExitUsage;
        }

        std::string journalPath = inputPath;
        if (std::filesystem::is_directory(inputPath)) {
            journalPath = (std::filesystem::path(inputPath) /
                           "journal.jsonl")
                              .string();
        }
        if (!std::filesystem::exists(journalPath)) {
            std::fprintf(stderr,
                         "sweep_report: no journal at '%s'\n",
                         journalPath.c_str());
            return kExitMissing;
        }
        if (title.empty())
            title = inputPath;

        const sweep::JournalData data = sweep::readJournal(
            journalPath, [&](std::size_t lineno, const std::string &reason,
                             const std::string &) {
                if (strict)
                    configError(reason);
                std::fprintf(stderr,
                             "sweep_report: %s:%zu: skipped: %s\n",
                             journalPath.c_str(), lineno,
                             reason.c_str());
            });
        const std::vector<sweep::JobResult> &rows = data.rows;
        const std::size_t skipped = data.skippedLines;
        if (rows.empty() && skipped == 0) {
            std::fprintf(stderr,
                         "sweep_report: journal '%s' is empty\n",
                         journalPath.c_str());
            return kExitEmpty;
        }

        std::string md;
        if (rows.size() > kRowTableLimit) {
            md = sweep::renderAggregatesMarkdown(data.aggregatesJson,
                                                 title);
        } else {
            md = sweep::renderMarkdownSummary(rows, title);
        }
        if (topN > 0)
            md += "\n" + sweep::renderTopJobsMarkdown(rows, topN);

        if (outPath.empty()) {
            std::cout << md;
        } else {
            std::ofstream out(outPath);
            if (!out)
                ioError("cannot write '", outPath, "'");
            out << md;
            std::printf("wrote %s (%zu scenario rows)\n",
                        outPath.c_str(), rows.size());
        }
        if (skipped > 0) {
            std::fprintf(stderr,
                         "sweep_report: %zu line(s) skipped\n",
                         skipped);
            return kExitSkipped;
        }
        return kExitOk;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep_report: %s\n", e.what());
        return kExitError;
    }
}
