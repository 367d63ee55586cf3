#include "inputs.hh"

#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "base/rng.hh"

namespace perfbench
{

namespace
{

// Round sizes: each round is a second or two of work on one core
// pair, so a run holds enough rounds for a steady median.
constexpr std::size_t kSharedStacks = 2;
constexpr std::size_t kSharedJobsPerStack = 100;
constexpr std::size_t kDistinctJobs = 40;
constexpr std::size_t kBeJobs = 8;
constexpr std::size_t kRk4Jobs = 32;
constexpr std::size_t kTraceSamples = 1000;
constexpr std::size_t kFabricStacks = 4;
constexpr std::size_t kFabricJobsPerStack = 200;

/** EV6 blocks and a typical per-block power (W), the scale of the
 *  gcc trace the paper replays. */
struct BlockPower
{
    const char *name;
    double watts;
};
constexpr std::array<BlockPower, 18> kEv6 = {{
    {"L2", 1.83},     {"L2_left", 0.43}, {"L2_right", 0.41},
    {"Icache", 3.11}, {"Dcache", 14.0},  {"Bpred", 2.8},
    {"DTB", 1.44},    {"FPAdd", 0.24},   {"FPReg", 0.17},
    {"FPMul", 0.23},  {"FPMap", 0.11},   {"FPQ", 0.10},
    {"IntMap", 1.92}, {"IntQ", 2.16},    {"IntReg", 5.0},
    {"IntExec", 3.61},{"LdStQ", 3.37},   {"ITB", 1.39},
}};

constexpr std::array<const char *, 4> kDirections = {
    "left-to-right", "right-to-left", "bottom-to-top", "top-to-bottom"};

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

/** `"key": value` members joined into one JSON object body. */
class Object
{
  public:
    Object &
    add(const std::string &key, const std::string &jsonValue)
    {
        body += (body.empty() ? "" : ",") + quoted(key) + ":" + jsonValue;
        return *this;
    }
    Object &
    str(const std::string &key, const std::string &value)
    {
        return add(key, quoted(value));
    }
    Object &
    number(const std::string &key, double value)
    {
        return add(key, num(value));
    }
    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

/** Seeded per-block power vector around the EV6 typical powers. */
void
addBlockPowers(Object &o, irtherm::SplitMix64 &rng)
{
    for (const BlockPower &b : kEv6)
        o.number("power.block." + std::string(b.name),
                 b.watts * rng.uniform(0.6, 1.4));
}

std::string
planText(const std::string &name, const Object &base,
         const std::vector<std::string> &scenarios)
{
    std::string out = "{\"name\":" + quoted(name) +
                      ",\"base\":" + base.text() + ",\"scenarios\":[";
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        out += (i ? ",\n" : "\n") + scenarios[i];
    return out + "]}\n";
}

/**
 * Write a HotSpot .ptrace of kTraceSamples rows: each block holds a
 * seeded level for a seeded phase length, then jumps — the bursty
 * shape of a real benchmark trace.
 */
void
writePtrace(const std::string &path, irtherm::SplitMix64 &rng)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    for (std::size_t b = 0; b < kEv6.size(); ++b)
        out << (b ? " " : "") << kEv6[b].name;
    out << "\n";
    std::array<double, kEv6.size()> level{};
    std::array<std::size_t, kEv6.size()> left{};
    for (std::size_t s = 0; s < kTraceSamples; ++s) {
        for (std::size_t b = 0; b < kEv6.size(); ++b) {
            if (left[b] == 0) {
                level[b] = kEv6[b].watts * rng.uniform(0.3, 1.7);
                left[b] = 20 + rng.index(200);
            }
            --left[b];
            out << (b ? " " : "") << num(level[b]);
        }
        out << "\n";
    }
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

std::string
sharedStack(irtherm::SplitMix64 &rng, const std::string &name)
{
    Object base;
    base.str("floorplan", "preset:ev6")
        .str("mode", "steady")
        .str("config.model_mode", "grid")
        .number("config.grid_nx", 32)
        .number("config.grid_ny", 32)
        .str("config.cooling", "oil");
    std::vector<std::string> scenarios;
    for (std::size_t s = 0; s < kSharedStacks; ++s) {
        const double velocity = rng.uniform(5.0, 15.0);
        const char *direction = kDirections[rng.index(kDirections.size())];
        for (std::size_t j = 0; j < kSharedJobsPerStack; ++j) {
            Object o;
            o.str("name", "s" + std::to_string(s) + "j" + std::to_string(j))
                .number("config.oil_velocity", velocity)
                .str("config.oil_direction", direction);
            addBlockPowers(o, rng);
            scenarios.push_back(o.text());
        }
    }
    return planText(name, base, scenarios);
}

std::string
distinctStack(irtherm::SplitMix64 &rng, const std::string &name)
{
    Object base;
    base.str("floorplan", "preset:ev6")
        .str("mode", "steady")
        .str("config.model_mode", "grid")
        .number("config.grid_nx", 32)
        .number("config.grid_ny", 32);
    std::vector<std::string> scenarios;
    for (std::size_t j = 0; j < kDistinctJobs; ++j) {
        Object o;
        o.str("name", "j" + std::to_string(j))
            .str("config.cooling", j % 2 ? "oil" : "air")
            .number("config.r_convec", rng.uniform(0.1, 0.6))
            .number("config.oil_velocity", rng.uniform(5.0, 15.0))
            .str("config.oil_direction",
                 kDirections[rng.index(kDirections.size())]);
        addBlockPowers(o, rng);
        scenarios.push_back(o.text());
    }
    return planText(name, base, scenarios);
}

std::string
transient(irtherm::SplitMix64 &rng, const std::string &name,
          const std::string &dir)
{
    Object base;
    base.str("floorplan", "preset:ev6").str("mode", "transient");
    std::vector<std::string> scenarios;
    for (std::size_t j = 0; j < kBeJobs + kRk4Jobs; ++j) {
        const std::string path =
            dir + "/trace" + std::to_string(j) + ".ptrace";
        writePtrace(path, rng);
        Object o;
        o.str("name", "t" + std::to_string(j)).str("ptrace", path);
        if (j < kBeJobs) {
            // Grid-16 OIL-SILICON under backward Euler: one shifted
            // CG solve per sample.
            o.str("integrator", "be")
                .number("ptrace.sampling", 1e-3)
                .str("config.cooling", "oil")
                .number("config.oil_velocity", rng.uniform(8.0, 12.0))
                .str("config.model_mode", "grid")
                .number("config.grid_nx", 16)
                .number("config.grid_ny", 16);
        } else {
            // Block-mode AIR-SINK under adaptive RK4: the stiff
            // network of the paper's Fig. 7.
            o.str("integrator", "rk4")
                .number("ptrace.sampling", 3.33e-6)
                .str("config.cooling", "air")
                .number("config.r_convec", rng.uniform(0.2, 0.4));
        }
        scenarios.push_back(o.text());
    }
    return planText(name, base, scenarios);
}

std::string
fabric(irtherm::SplitMix64 &rng, const std::string &name)
{
    Object base;
    base.str("floorplan", "preset:ev6")
        .str("mode", "steady")
        .str("config.cooling", "air");
    std::vector<std::string> scenarios;
    for (std::size_t s = 0; s < kFabricStacks; ++s) {
        const double rConvec = rng.uniform(0.1, 0.6);
        for (std::size_t j = 0; j < kFabricJobsPerStack; ++j) {
            Object o;
            o.str("name", "s" + std::to_string(s) + "j" + std::to_string(j))
                .number("config.r_convec", rConvec);
            addBlockPowers(o, rng);
            scenarios.push_back(o.text());
        }
    }
    return planText(name, base, scenarios);
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (const Workload w :
         {Workload::SharedStack, Workload::DistinctStack,
          Workload::Transient, Workload::Fabric}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::SharedStack:
        return "sweep_shared_stack";
      case Workload::DistinctStack:
        return "sweep_distinct_stack";
      case Workload::Transient:
        return "transient_replay";
      case Workload::Fabric:
        return "fabric_loopback";
    }
    return "?";
}

std::string
makeRound(Workload w, std::uint64_t seed, std::size_t round,
          const std::string &dir)
{
    // One independent stream per (workload, seed, round).
    irtherm::SplitMix64 rng =
        irtherm::SplitMix64(seed * 4 + static_cast<std::uint64_t>(w))
            .child(round);
    const std::string name =
        std::string(workloadName(w)) + "_r" + std::to_string(round);
    switch (w) {
      case Workload::SharedStack:
        return sharedStack(rng, name);
      case Workload::DistinctStack:
        return distinctStack(rng, name);
      case Workload::Transient:
        return transient(rng, name, dir);
      case Workload::Fabric:
        return fabric(rng, name);
    }
    return "";
}

} // namespace perfbench
