#include "campaign/invariants.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "base/errors.hh"

namespace irtherm::campaign
{

namespace
{

using sweep::JobResult;
using sweep::JobStatus;

std::string
journalPath(const std::string &dir)
{
    return (std::filesystem::path(dir) / "journal.jsonl").string();
}

/** Per-status counts of a row map, as "ok=3 failed=1 ...". */
std::string
statusCounts(const std::map<std::string, JobResult> &rows)
{
    std::size_t counts[4] = {0, 0, 0, 0};
    for (const auto &[hash, row] : rows)
        ++counts[static_cast<std::size_t>(row.status)];
    return "ok=" + std::to_string(counts[0]) +
           " failed=" + std::to_string(counts[1]) +
           " timeout=" + std::to_string(counts[2]) +
           " hung=" + std::to_string(counts[3]);
}

} // namespace

void
InvariantReport::add(const std::string &name, bool ok,
                     const std::string &detail)
{
    checks.push_back({name, ok, detail});
}

bool
InvariantReport::passed() const
{
    return !checks.empty() &&
           std::all_of(checks.begin(), checks.end(),
                       [](const InvariantCheck &c) {
                           return c.passed;
                       });
}

std::string
InvariantReport::summary() const
{
    std::string out;
    for (const InvariantCheck &c : checks) {
        out += c.passed ? "  [PASS] " : "  [FAIL] ";
        out += c.name;
        if (!c.detail.empty())
            out += ": " + c.detail;
        out += "\n";
    }
    return out;
}

std::map<std::string, JobResult>
loadJournalRows(const std::string &dir, std::size_t *skipped)
{
    std::map<std::string, JobResult> rows;
    if (skipped)
        *skipped = 0;
    sweep::scanJournal(
        journalPath(dir),
        [&rows](JobResult &&row, const std::string &) {
            rows.emplace(row.hash, std::move(row));
        },
        [skipped](std::size_t, const std::string &, const std::string &) {
            if (skipped)
                ++*skipped;
        });
    return rows;
}

std::string
normalizedLine(const JobResult &row)
{
    JobResult r = row;
    r.wallSeconds = 0.0;
    r.resources = sweep::JobResources{};
    r.worker.clear();
    r.leaseRenewals = 0;
    r.leaseExpiries = 0;
    r.reLeases = 0;
    return r.toJsonLine();
}

void
checkNoDuplicateWork(const std::string &dir,
                     InvariantReport &report)
{
    // At most one parsable line per hash; a fault-damaged line is
    // resume's to quarantine, not a duplicate.
    std::map<std::string, std::size_t> seen;
    std::size_t parsable = 0;
    sweep::scanJournal(
        journalPath(dir),
        [&](JobResult &&row, const std::string &) {
            ++seen[row.hash];
            ++parsable;
        },
        [](std::size_t, const std::string &, const std::string &) {});
    std::string dups;
    for (const auto &[hash, count] : seen) {
        if (count > 1)
            dups += (dups.empty() ? "" : ", ") + hash + " x" +
                    std::to_string(count);
    }

    std::string detail = std::to_string(parsable) + " journal rows";
    if (!dups.empty())
        detail += "; duplicate hashes: " + dups;
    report.add("zero-duplicate-work", dups.empty(), detail);
}

void
checkJournaledOkPreserved(
    const std::map<std::string, JobResult> &before,
    const std::map<std::string, JobResult> &after,
    InvariantReport &report)
{
    std::size_t okBefore = 0;
    std::string lost;
    for (const auto &[hash, row] : before) {
        if (row.status != JobStatus::Ok)
            continue;
        ++okBefore;
        const auto it = after.find(hash);
        if (it == after.end()) {
            lost += (lost.empty() ? "" : ", ") + hash + " lost";
        } else if (it->second.toJsonLine() != row.toJsonLine()) {
            lost += (lost.empty() ? "" : ", ") + hash +
                    " rewritten";
        }
    }
    std::string detail =
        std::to_string(okBefore) + " ok rows before resume, " +
        std::to_string(after.size()) + " rows after";
    if (!lost.empty())
        detail += "; " + lost;
    report.add("journaled-ok-preserved", lost.empty(), detail);
}

void
checkCacheBitIdentity(
    const std::string &cacheDir,
    const std::map<std::string, JobResult> &rows,
    InvariantReport &report)
{
    std::vector<std::string> entries;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(
             cacheDir, ec)) {
        if (e.path().extension() == ".json")
            entries.push_back(e.path().string());
    }
    std::sort(entries.begin(), entries.end());

    std::size_t compared = 0;
    std::string issues;
    for (const std::string &path : entries) {
        std::ifstream in(path);
        std::string line;
        std::getline(in, line);
        JobResult entry;
        try {
            entry = JobResult::fromJsonLine(
                line, "cache entry " + path);
        } catch (const FatalError &e2) {
            issues += (issues.empty() ? "" : "; ") + path +
                      " unparsable (" + e2.what() + ")";
            continue;
        }
        const auto it = rows.find(entry.hash);
        if (it == rows.end())
            continue; // a different plan's result; not ours to judge
        ++compared;
        if (normalizedLine(entry) != normalizedLine(it->second)) {
            issues += (issues.empty() ? "" : "; ") + entry.hash +
                      " differs from its journaled result";
        }
    }

    std::string detail = std::to_string(compared) + " of " +
                         std::to_string(entries.size()) +
                         " cache entries matched against the "
                         "journal";
    if (!issues.empty())
        detail += "; " + issues;
    report.add("cache-bit-identity", issues.empty(), detail);
}

void
checkBitIdenticalReplay(
    const std::map<std::string, JobResult> &a,
    const std::map<std::string, JobResult> &b,
    const std::string &label, InvariantReport &report)
{
    std::string issues;
    if (a.size() != b.size()) {
        issues = "row counts differ: " + std::to_string(a.size()) +
                 " vs " + std::to_string(b.size());
    } else if (a.empty()) {
        issues = "no rows to compare";
    } else {
        for (const auto &[hash, row] : a) {
            const auto it = b.find(hash);
            if (it == b.end()) {
                issues += (issues.empty() ? "" : "; ") + hash +
                          " missing from the second run";
                continue;
            }
            if (normalizedLine(row) !=
                normalizedLine(it->second)) {
                issues += (issues.empty() ? "" : "; ") + hash +
                          " differs between runs";
            }
        }
    }
    std::string detail = label + ": " + std::to_string(a.size()) +
                         " rows (" + statusCounts(a) + ")";
    if (!issues.empty())
        detail += "; " + issues;
    report.add("disarmed-replay(" + label + ")", issues.empty(),
               detail);
}

} // namespace irtherm::campaign
