#include "campaign/fault_gen.hh"

#include <algorithm>
#include <cstring>

#include "base/fault_injection.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace irtherm::campaign
{

std::string
generateFaultSpec(SplitMix64 &rng,
                  const std::vector<const char *> &eligible)
{
    if (eligible.empty())
        fatal("generateFaultSpec: empty eligible point list");

    // 1-3 rules, each on a distinct point (drawn without
    // replacement, preserving list order for a canonical spec).
    const std::size_t want =
        1 + rng.weightedIndex({0.45, 0.35, 0.2});
    std::vector<bool> taken(eligible.size(), false);
    for (std::size_t i = 0;
         i < std::min(want, eligible.size()); ++i) {
        std::size_t j = rng.index(eligible.size());
        while (taken[j])
            j = (j + 1) % eligible.size();
        taken[j] = true;
    }

    // Knob values are fixed strings so the spec is byte-replayable.
    static const char *const kProbs[] = {"", "0.5", "0.25"};

    std::string spec;
    for (std::size_t j = 0; j < eligible.size(); ++j) {
        if (!taken[j])
            continue;
        const char *point = eligible[j];
        const std::uint64_t count = rng.range(1, 3);
        const std::uint64_t after =
            rng.weightedIndex({0.6, 0.25, 0.15});
        const char *prob =
            kProbs[rng.weightedIndex({0.6, 0.25, 0.15})];

        if (!spec.empty())
            spec += ',';
        spec += point;
        spec += ":count=" + std::to_string(count);
        if (after > 0)
            spec += ":after=" + std::to_string(after);
        if (*prob != '\0')
            spec += std::string(":prob=") + prob;
        if (std::strcmp(point, faultpoint::JobStall) == 0)
            spec += ":seconds=0.05";
    }
    return spec;
}

std::string
shareFaultBudget(const std::string &spec, std::size_t worker,
                 std::size_t workers)
{
    if (workers <= 1)
        return spec;
    std::string out;
    for (const std::string &ruleText : split(spec, ',')) {
        const std::string rule = trim(ruleText);
        if (rule.empty())
            continue;
        std::vector<std::string> parts = split(rule, ':');
        std::string *countPart = nullptr;
        std::uint64_t count = 1;
        for (std::string &part : parts) {
            part = trim(part);
            if (startsWith(part, "count=")) {
                countPart = &part;
                count = static_cast<std::uint64_t>(parseDouble(
                    part.substr(6), "faults option count"));
            }
        }
        const std::uint64_t share =
            count / workers + (worker < count % workers ? 1 : 0);
        if (share == 0)
            continue;
        const std::string shared = "count=" + std::to_string(share);
        if (countPart != nullptr)
            *countPart = shared;
        else
            parts.push_back(shared);
        if (!out.empty())
            out += ',';
        for (std::size_t i = 0; i < parts.size(); ++i)
            out += (i ? ":" : "") + parts[i];
    }
    return out;
}

} // namespace irtherm::campaign
