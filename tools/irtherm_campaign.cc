/**
 * @file
 * Standalone randomized fault-campaign runner.
 *
 *     irtherm_campaign [--seed <u64>] [--cycles <n>]
 *                      [--time-budget <sec>] [--out <dir>]
 *                      [--cli <irtherm_cli>] [--in-process]
 *                      [--only-cycle <i>] [--list-points]
 *
 * Everything a campaign does derives from the seed (see
 * src/campaign/driver.hh), so the one line this tool always prints —
 * the seed — is a complete reproduction recipe, and a failing run
 * ends with the exact command that replays its first failing cycle
 * alone (campaign::replayCommand, the line repro.txt carries too).
 * Nightly CI runs it with a fresh random seed and a time budget; the
 * PR smoke job runs two cycles on a fixed seed.
 *
 * Exit codes: 0 all cycles passed, 1 any cycle failed (or zero
 * cycles ran), 2 usage error.
 */

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "campaign/driver.hh"

namespace
{

using namespace irtherm;

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: irtherm_campaign [options]\n"
        "\n"
        "Seeded randomized fault campaign: random sweep plans x "
        "random fault\n"
        "specs x kill-and-resume cycles, with an invariant checker "
        "after each\n"
        "cycle. The seed fully determines every generated plan and "
        "fault spec.\n"
        "\n"
        "options:\n"
        "  --seed <u64>         campaign seed (default a fixed "
        "seed; print-\n"
        "                       ed either way so any run can be "
        "replayed)\n"
        "  --cycles <n>         kill-and-resume cycles to run "
        "(default 5)\n"
        "  --time-budget <sec>  stop starting new cycles after "
        "this much\n"
        "                       wall time (0 = unlimited)\n"
        "  --out <dir>          artifact directory (default "
        "campaign_out)\n"
        "  --cli <path>         irtherm_cli binary for "
        "multi-process\n"
        "                       cycles (default: next to this "
        "binary)\n"
        "  --in-process         never spawn processes; all cycles "
        "in-process\n"
        "  --only-cycle <i>     run just cycle i (replay a "
        "repro.txt)\n"
        "  --list-points        print the fault-point catalog and "
        "exit\n",
        to);
}

/** irtherm_cli next to this binary, or "" when absent. */
std::string
siblingCli(const char *argv0)
{
    std::error_code ec;
    const std::filesystem::path self(argv0 ? argv0 : "");
    const std::filesystem::path candidate =
        self.parent_path() / "irtherm_cli";
    if (std::filesystem::exists(candidate, ec) &&
        ::access(candidate.string().c_str(), X_OK) == 0)
        return candidate.string();
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    campaign::CampaignOptions opts;
    bool inProcessOnly = false;
    bool cliGiven = false;

    const auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s wants a value\n", argv[i]);
            usage(stderr);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed") {
            opts.seed = std::strtoull(value(i).c_str(), nullptr, 0);
        } else if (arg == "--cycles") {
            opts.cycles = static_cast<std::size_t>(
                std::strtoull(value(i).c_str(), nullptr, 10));
        } else if (arg == "--time-budget") {
            opts.timeBudgetSeconds =
                std::atof(value(i).c_str());
        } else if (arg == "--out") {
            opts.outDir = value(i);
        } else if (arg == "--cli") {
            opts.cliPath = value(i);
            cliGiven = true;
        } else if (arg == "--in-process") {
            inProcessOnly = true;
        } else if (arg == "--only-cycle") {
            opts.onlyCycle =
                std::strtol(value(i).c_str(), nullptr, 10);
        } else if (arg == "--list-points") {
            for (const FaultPoint &p :
                 FaultInjector::knownPoints()) {
                std::printf("%-22s %-24s %s\n", p.name, p.layer,
                            p.effect);
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         argv[i]);
            usage(stderr);
            return 2;
        }
    }

    if (inProcessOnly) {
        opts.forceKind = 0;
        opts.cliPath.clear();
    } else if (!cliGiven) {
        opts.cliPath = siblingCli(argv[0]);
        if (opts.cliPath.empty())
            inform("campaign: no irtherm_cli next to this binary; "
                   "running in-process cycles only");
    }

    std::printf("campaign seed: %" PRIu64 " (replay with "
                "--seed %" PRIu64 ")\n",
                opts.seed, opts.seed);

    campaign::CampaignSummary summary;
    try {
        summary = campaign::runCampaign(opts);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "irtherm_campaign: %s\n", e.what());
        return 2;
    }

    std::printf("\ncampaign: %zu cycles, %zu passed (seed %" PRIu64
                ")\n",
                summary.cyclesRun, summary.cyclesPassed,
                summary.seed);
    for (const campaign::CycleOutcome &oc : summary.outcomes) {
        std::printf("  cycle %zu [%s] %s%s%s\n", oc.spec.index,
                    oc.spec.kind ==
                            campaign::CycleKind::InProcess
                        ? "in-process"
                        : "fleet",
                    oc.passed ? "PASS" : "FAIL",
                    oc.error.empty() ? "" : " — ",
                    oc.error.c_str());
        if (!oc.passed)
            std::printf("%s", oc.report.summary().c_str());
    }
    if (!summary.passed()) {
        const auto failed = std::find_if(
            summary.outcomes.begin(), summary.outcomes.end(),
            [](const campaign::CycleOutcome &oc) { return !oc.passed; });
        if (failed == summary.outcomes.end())
            std::printf("\nFAILED — no cycle ran\n");
        else
            std::printf("\nFAILED — replay the first failing cycle "
                        "with: %s\n",
                        campaign::replayCommand(opts, failed->spec.index)
                            .c_str());
        return 1;
    }
    return 0;
}
