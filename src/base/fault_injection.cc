#include "base/fault_injection.hh"

#include <cstdlib>

#include "base/errors.hh"
#include "base/str.hh"

namespace irtherm
{

namespace
{

/** Innermost-first stack of scope keys for the current thread. */
thread_local std::vector<std::string> contextStack;

const std::string emptyKey;

bool
knownPoint(const std::string &p)
{
    for (const FaultPoint &k : FaultInjector::knownPoints()) {
        if (p == k.name)
            return true;
    }
    return false;
}

/** Comma-separated point names, for the unknown-point diagnostic. */
std::string
knownPointList()
{
    std::string out;
    for (const FaultPoint &k : FaultInjector::knownPoints()) {
        if (!out.empty())
            out += ", ";
        out += k.name;
    }
    return out;
}

/** parseDouble, but spec errors keep the ConfigError contract. */
double
parseSpecNumber(const std::string &value, const std::string &ctx)
{
    try {
        return parseDouble(value, ctx);
    } catch (const FatalError &e) {
        configError(e.what());
    }
}

} // namespace

const std::vector<FaultPoint> &
FaultInjector::knownPoints()
{
    using namespace faultpoint;
    static const std::vector<FaultPoint> catalog = {
        {CgNan, "numeric/iterative",
         "poison the CG residual with a NaN",
         "solver fallback chain demotes; job retries and completes"},
        {CgDiverge, "numeric/iterative",
         "force the iterative solve to report divergence",
         "fallback chain demotes to the next solver tier"},
        {MgDiverge, "numeric/multigrid",
         "poison one multigrid V-cycle output with NaN",
         "robust_solve demotes mg-cg to jacobi-cg"},
        {ImpulseCorrupt, "numeric/impulse_cache",
         "poison one column of a fresh impulse-response matrix",
         "independent residual check rejects it; job demotes to the "
         "iterative chain"},
        {CholCorrupt, "numeric/direct_solve",
         "poison one direct (sparse Cholesky) answer: an implicit "
         "integrator step or an impulse-build column",
         "the answer's residual check rejects it; CG answers the step, "
         "MG-CG the column"},
        {JobStall, "sweep/runner",
         "sleep inside a sweep job (seconds= payload)",
         "cooperative deadline or watchdog times the job out"},
        {JournalCorrupt, "sweep/result_store",
         "scramble the bytes of one journal line",
         "resume quarantines the line and re-runs the job"},
        {JournalTruncate, "sweep/result_store",
         "write only a prefix of one journal line",
         "resume quarantines the merged line and re-runs the job"},
        {JournalTornSegment, "sweep/segment",
         "seal only a prefix of a columnar segment",
         "resume quarantines the segment (.torn) and recovers rows "
         "from the JSONL tail"},
        {LeaseLost, "fabric/coordinator",
         "coordinator forgets a live lease as if it expired",
         "holder's renew gets 410; jobs re-lease; completes land "
         "exactly once"},
        {WorkerDie, "fabric/worker",
         "worker dies after leasing a batch, before completing it",
         "lease TTL lapses; jobs re-lease with zero duplicate work"},
        {CompleteDup, "fabric/worker",
         "worker re-sends a successful /complete batch",
         "coordinator classifies every row as a duplicate"},
        {CacheCorrupt, "fabric/result_cache",
         "scramble a shared result-cache entry as it is read",
         "entry is evicted and reported as a miss, never served"},
        {CkptCorrupt, "sweep/result_store",
         "scramble the aggregates checkpoint as resume opens it",
         "checkpoint is discarded; resume falls back to the full "
         "JSONL scan"},
    };
    return catalog;
}

FaultInjector &
FaultInjector::global()
{
    static FaultInjector *injector = [] {
        auto *inj = new FaultInjector;
        if (const char *env = std::getenv("IRTHERM_FAULTS");
            env != nullptr && env[0] != '\0')
            inj->arm(env);
        return inj;
    }();
    return *injector;
}

void
FaultInjector::arm(const std::string &spec)
{
    std::vector<Rule> parsed;
    for (const std::string &ruleText : split(spec, ',')) {
        const std::string stripped = trim(ruleText);
        if (stripped.empty())
            continue;
        const std::vector<std::string> parts = split(stripped, ':');
        Rule rule;
        rule.point = trim(parts[0]);
        if (!knownPoint(rule.point)) {
            configError("faults: unknown injection point '",
                        rule.point, "' (known points: ",
                        knownPointList(), ")");
        }
        for (std::size_t i = 1; i < parts.size(); ++i) {
            const std::string opt = trim(parts[i]);
            const std::size_t eq = opt.find('=');
            if (eq == std::string::npos || eq == 0) {
                configError("faults: rule '", stripped,
                            "': option '", opt,
                            "' is not <name>=<value>");
            }
            const std::string name = opt.substr(0, eq);
            const std::string value = opt.substr(eq + 1);
            const std::string ctx = "faults option " + name;
            if (name == "match") {
                rule.match = value;
            } else if (name == "count") {
                rule.count = static_cast<std::uint64_t>(
                    parseSpecNumber(value, ctx));
            } else if (name == "after") {
                rule.after = static_cast<std::uint64_t>(
                    parseSpecNumber(value, ctx));
            } else if (name == "prob") {
                rule.prob = parseSpecNumber(value, ctx);
                if (rule.prob < 0.0 || rule.prob > 1.0) {
                    configError("faults: prob must be in [0, 1], got ",
                                rule.prob);
                }
            } else {
                rule.params.emplace_back(name,
                                         parseSpecNumber(value, ctx));
            }
        }
        parsed.push_back(std::move(rule));
    }

    std::lock_guard<std::mutex> lock(mu);
    rules = std::move(parsed);
    totalFired = 0;
    rng = Rng(); // deterministic prob= draws per arm()
    armedFlag.store(!rules.empty(), std::memory_order_relaxed);
}

void
FaultInjector::disarm()
{
    std::lock_guard<std::mutex> lock(mu);
    rules.clear();
    armedFlag.store(false, std::memory_order_relaxed);
}

bool
FaultInjector::shouldFire(const char *point, const std::string &key)
{
    if (!armed())
        return false;
    const std::string &scope = key.empty() ? currentContext() : key;
    std::lock_guard<std::mutex> lock(mu);
    for (Rule &rule : rules) {
        if (rule.point != point)
            continue;
        if (!rule.match.empty() &&
            scope.find(rule.match) == std::string::npos)
            continue;
        const std::uint64_t occurrence = rule.seen++;
        if (occurrence < rule.after)
            continue;
        if (rule.firedCount >= rule.count)
            continue;
        if (rule.prob < 1.0 && rng.uniform() >= rule.prob)
            continue;
        ++rule.firedCount;
        ++totalFired;
        warn("fault injected: ", point,
             scope.empty() ? "" : " [" + scope + "]", " (fire ",
             rule.firedCount, "/", rule.count, ")");
        return true;
    }
    return false;
}

double
FaultInjector::param(const char *point, const char *name,
                     double fallback) const
{
    if (!armed())
        return fallback;
    std::lock_guard<std::mutex> lock(mu);
    for (const Rule &rule : rules) {
        if (rule.point != point)
            continue;
        for (const auto &[pname, value] : rule.params) {
            if (pname == name)
                return value;
        }
    }
    return fallback;
}

std::uint64_t
FaultInjector::fired() const
{
    std::lock_guard<std::mutex> lock(mu);
    return totalFired;
}

FaultInjector::ScopedContext::ScopedContext(std::string key)
{
    contextStack.push_back(std::move(key));
}

FaultInjector::ScopedContext::~ScopedContext()
{
    contextStack.pop_back();
}

const std::string &
FaultInjector::currentContext()
{
    return contextStack.empty() ? emptyKey : contextStack.back();
}

} // namespace irtherm
