/**
 * @file
 * journal_synth — write a synthetic-but-plausible sweep journal.
 *
 * Writes <dir>/journal.jsonl (creating the directory, replacing any
 * journal already there) with N rows drawn deterministically from a
 * seed: same N and seed, same bytes. Each row has two sweep axes
 * (`vdd`, `workload`), about 2% failed and 0.5% timed-out jobs, and
 * four block temperatures, so the aggregates, the reports and
 * resume see a realistic mix without running a solver. CI's scale
 * job fabricates its 50k-job sweep with it in well under a second.
 *
 * usage: journal_synth <dir> --jobs <n> [--seed <n>]
 *
 * exit codes: 0 done, 1 error, 2 bad command line.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "base/errors.hh"
#include "base/rng.hh"
#include "sweep/result_store.hh"
#include "sweep/scenario.hh"

using namespace irtherm;

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: journal_synth <dir> --jobs <n> [--seed <n>]\n"
                 "writes <dir>/journal.jsonl with n deterministic "
                 "synthetic job rows (seed default 1)\n");
}

/** Strict positive-integer argument parse. */
std::uint64_t
parseCount(const std::string &value, const char *flag)
{
    char *end = nullptr;
    const double n = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || n < 1.0 ||
        n != std::floor(n))
        configError(flag, " wants a positive integer, got '", value,
                    "'");
    return static_cast<std::uint64_t>(n);
}

void
synthesizeJournal(const std::string &dir, std::size_t jobs,
                  std::uint64_t seed)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        ioError("journal_synth: cannot create '", dir,
                "': ", ec.message());
    const std::string path =
        (std::filesystem::path(dir) / "journal.jsonl").string();
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        ioError("journal_synth: cannot open '", path, "'");

    static const char *kBlocks[] = {"core0", "core1", "l2cache",
                                    "ncu"};
    static const char *kVdd[] = {"0.85", "0.95", "1.05"};
    static const char *kWorkload[] = {"idle", "dgemm", "mix",
                                      "powervirus"};

    Rng rng(seed);
    std::string buffer;
    buffer.reserve(1 << 20);
    for (std::size_t i = 0; i < jobs; ++i) {
        sweep::JobResult r;
        const std::size_t vdd = rng.index(3);
        const std::size_t load = rng.index(4);
        r.name = std::string("synth/vdd=") + kVdd[vdd] +
                 "/workload=" + kWorkload[load] + "/rep=" +
                 std::to_string(i);
        r.hash = sweep::hashHex(sweep::fnv1a64(r.name));
        r.axisValues.emplace_back("vdd", kVdd[vdd]);
        r.axisValues.emplace_back("workload", kWorkload[load]);
        const double roll = rng.uniform();
        if (roll < 0.02) {
            r.status = sweep::JobStatus::Failed;
            r.error = "cg: residual diverged";
            r.errorClass = ErrorClass::Numeric;
            r.attempts = 1 + rng.index(3);
        } else if (roll < 0.025) {
            r.status = sweep::JobStatus::Timeout;
            r.error = "job deadline exceeded";
            r.errorClass = ErrorClass::Timeout;
        } else {
            const double base = 45.0 + 12.0 * static_cast<double>(vdd) +
                                8.0 * static_cast<double>(load);
            r.peakCelsius = rng.gaussian(base, 3.0);
            r.gradientKelvin = rng.uniform(4.0, 18.0);
            r.minCelsius = r.peakCelsius - r.gradientKelvin;
            r.hottestUnit = kBlocks[rng.index(4)];
            r.heatPrimaryWatts = rng.uniform(20.0, 90.0);
            r.heatSecondaryWatts = rng.uniform(1.0, 6.0);
            r.cgIterations = 40 + rng.index(200);
            r.warmStarted = rng.uniform() < 0.6;
            for (const char *block : kBlocks) {
                r.blockCelsius.emplace_back(
                    block, r.minCelsius +
                               rng.uniform(0.0, r.gradientKelvin));
            }
        }
        r.wallSeconds = rng.uniform(0.01, 0.4) *
                        (r.warmStarted ? 0.4 : 1.0);
        r.resources.cpuSeconds = r.wallSeconds * rng.uniform(0.7, 1.0);
        r.resources.solverIterations = r.cgIterations;
        r.resources.retries = r.attempts - 1;
        buffer += r.toJsonLine();
        buffer += '\n';
        if (buffer.size() > (1 << 20)) {
            out << buffer;
            buffer.clear();
        }
    }
    out << buffer;
    out.flush();
    if (!out)
        ioError("journal_synth: short write to '", path, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::string dir;
        std::size_t jobs = 0;
        std::uint64_t seed = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    configError("missing value after ", arg);
                return argv[++i];
            };
            if (arg == "--jobs") {
                jobs = static_cast<std::size_t>(
                    parseCount(value(), "--jobs"));
            } else if (arg == "--seed") {
                seed = parseCount(value(), "--seed");
            } else if (!arg.empty() && arg[0] == '-') {
                std::fprintf(stderr,
                             "journal_synth: unknown argument '%s'\n",
                             arg.c_str());
                usage();
                return 2;
            } else if (dir.empty()) {
                dir = arg;
            } else {
                std::fprintf(stderr,
                             "journal_synth: unexpected argument '%s'\n",
                             arg.c_str());
                usage();
                return 2;
            }
        }
        if (dir.empty() || jobs == 0) {
            usage();
            return 2;
        }
        synthesizeJournal(dir, jobs, seed);
        std::printf("journal_synth: wrote %zu synthetic row(s) "
                    "(seed %" PRIu64 ") to %s\n",
                    jobs, seed, dir.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "journal_synth: %s\n", e.what());
        return 1;
    }
}
