#include "sweep/scenario.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "base/errors.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "floorplan/presets.hh"

namespace irtherm::sweep
{

namespace
{

constexpr const char *kConfigPrefix = "config.";
constexpr const char *kBlockPowerPrefix = "power.block.";

/** Context of a per-key resolve() error. resolve() runs once per
 *  job, so its parsers build it only when they throw. */
std::string
keyContext(const std::string &key)
{
    return "scenario key '" + key + "'";
}

/** parseDouble() under the key's context, without building it for a
 *  plain number. */
double
parseNumber(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && *end == '\0')
        return v;
    // Surrounding whitespace or a malformed number: parseDouble
    // trims the one and throws the other, with the key's context.
    return parseDouble(value, keyContext(key));
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    configError(keyContext(key), ": expected a boolean, got '", value,
                "'");
}

std::size_t
parsePositiveInt(const std::string &key, const std::string &value)
{
    const double n = parseNumber(key, value);
    if (n < 1.0 || n != std::floor(n))
        configError(keyContext(key), ": expected a positive integer, got '",
                    value, "'");
    return static_cast<std::size_t>(n);
}

Floorplan
resolveFloorplan(const std::string &value)
{
    if (startsWith(value, "preset:")) {
        const std::string name = value.substr(7);
        if (name == "ev6")
            return floorplans::alphaEv6();
        if (name == "athlon")
            return floorplans::athlon64();
        configError("scenario: unknown floorplan preset '", name, "'");
    }
    if (startsWith(value, "flp:"))
        return Floorplan::loadFlp(value.substr(4));
    configError("scenario: floorplan must be 'preset:<ev6|athlon>' or "
          "'flp:<path>', got '",
          value, "'");
}

} // namespace

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

static_assert(std::is_nothrow_move_constructible_v<ScenarioSpec>);

ScenarioSpec::HashMemo &
ScenarioSpec::HashMemo::operator=(const HashMemo &other) noexcept
{
    // valid is read first: the hashes read after it are the ones it
    // vouches for, and a memo still being filled copies as not valid.
    const bool v = other.valid.load();
    scenario.store(other.scenario.load());
    stack.store(other.stack.load());
    valid.store(v);
    return *this;
}

void
ScenarioSpec::set(const std::string &key, const std::string &value)
{
    if (key.empty())
        configError("scenario: empty setting key");
    values[key] = value;
    memo.valid.store(false);
}

const ScenarioSpec::HashMemo &
ScenarioSpec::hashes() const
{
    if (memo.valid.load())
        return memo;
    // Readers racing here store the same values.
    std::string stack;
    for (const auto &[key, value] : values) {
        if (key != "floorplan" && !startsWith(key, kConfigPrefix))
            continue;
        stack += key;
        stack += '=';
        stack += value;
        stack += '\n';
    }
    memo.scenario.store(fnv1a64(canonicalSerialization()));
    memo.stack.store(fnv1a64(stack));
    memo.valid.store(true);
    return memo;
}

const std::string *
ScenarioSpec::find(const std::string &key) const
{
    const auto it = values.find(key);
    return it == values.end() ? nullptr : &it->second;
}

std::string
ScenarioSpec::displayName() const
{
    const std::string *name = find("name");
    return name != nullptr ? *name : hashHex();
}

std::string
ScenarioSpec::canonicalSerialization() const
{
    // std::map iterates in key order, which *is* the canonical order.
    std::string out;
    for (const auto &[key, value] : values) {
        if (key == "name")
            continue;
        out += key;
        out += '=';
        out += value;
        out += '\n';
    }
    return out;
}

std::uint64_t
ScenarioSpec::hash() const
{
    return hashes().scenario.load();
}

std::string
ScenarioSpec::hashHex() const
{
    return sweep::hashHex(hash());
}

std::uint64_t
ScenarioSpec::stackHash() const
{
    return hashes().stack.load();
}

ResolvedScenario
ScenarioSpec::resolve() const
{
    ResolvedScenario r;
    std::string configText;
    const std::string *floorplanValue = nullptr;
    const std::string *ptracePath = nullptr;
    double ptraceSampling = 3.33e-6;
    bool havePowerKey = false;
    double uniformPower = 0.0;
    std::vector<std::pair<std::string, double>> blockOverrides;

    for (const auto &[key, value] : values) {
        if (key == "name") {
            r.name = value;
        } else if (key == "floorplan") {
            floorplanValue = &value;
        } else if (key == "mode") {
            if (value == "steady")
                r.transient = false;
            else if (value == "transient")
                r.transient = true;
            else
                configError(keyContext(key),
                            ": mode must be 'steady' or 'transient'");
        } else if (key == "integrator") {
            if (value == "auto")
                r.integrator = IntegratorKind::Auto;
            else if (value == "rk4")
                r.integrator = IntegratorKind::AdaptiveRk4;
            else if (value == "be")
                r.integrator = IntegratorKind::BackwardEuler;
            else
                configError(keyContext(key),
                            ": integrator must be 'auto', 'rk4', or 'be'");
        } else if (key == "power.uniform") {
            uniformPower = parseNumber(key, value);
            havePowerKey = true;
        } else if (startsWith(key, kBlockPowerPrefix)) {
            blockOverrides.emplace_back(
                key.substr(std::string(kBlockPowerPrefix).size()),
                parseNumber(key, value));
            havePowerKey = true;
        } else if (key == "ptrace") {
            ptracePath = &value;
        } else if (key == "ptrace.sampling") {
            ptraceSampling = parseNumber(key, value);
        } else if (key == "solver.max_iterations") {
            r.maxIterations = parsePositiveInt(key, value);
        } else if (key == "solver.tolerance") {
            r.tolerance = parseNumber(key, value);
        } else if (key == "solver.fallback") {
            r.solverFallback = parseBool(key, value);
        } else if (key == "solver.preconditioner") {
            if (value == "jacobi")
                r.preconditioner = PreconditionerKind::Jacobi;
            else if (value == "mg")
                r.preconditioner = PreconditionerKind::Multigrid;
            else
                configError(keyContext(key),
                            ": preconditioner must be 'jacobi' or 'mg'");
        } else if (key == "solver.superposition") {
            r.superposition = parseBool(key, value);
        } else if (key == "outputs.map") {
            r.writeMap = parseBool(key, value);
        } else if (startsWith(key, kConfigPrefix)) {
            configText += key.substr(std::string(kConfigPrefix).size());
            configText += ' ';
            configText += value;
            configText += '\n';
        } else {
            configError("scenario: unknown key '", key, "'");
        }
    }

    // The package / discretization keys reuse the config_io parser
    // verbatim, so every `config.*` key gets the same validation a
    // .config file would.
    std::istringstream cfgIn(configText);
    r.config = parseConfig(cfgIn);

    if (floorplanValue == nullptr)
        configError("scenario: missing required key 'floorplan'");
    r.floorplan = resolveFloorplan(*floorplanValue);

    if (ptracePath != nullptr && havePowerKey) {
        configError("scenario: 'ptrace' and 'power.*' keys are mutually "
              "exclusive");
    }
    if (ptracePath != nullptr) {
        r.trace = PowerTrace::loadPtrace(*ptracePath, ptraceSampling)
                      .reorderedFor(r.floorplan);
        r.blockPowers = r.trace->averagePowers();
    } else {
        if (!havePowerKey) {
            configError("scenario: no power source — set 'power.uniform', "
                  "'power.block.<name>', or 'ptrace'");
        }
        r.blockPowers.assign(r.floorplan.blockCount(), uniformPower);
        for (const auto &[block, watts] : blockOverrides)
            r.blockPowers[r.floorplan.blockIndex(block)] = watts;
    }

    if (r.transient && !r.trace.has_value())
        configError("scenario: mode=transient requires a 'ptrace'");
    if (!r.transient)
        r.trace.reset(); // steady runs only need the average

    return r;
}

} // namespace irtherm::sweep
