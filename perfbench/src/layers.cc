#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_clock.hh"
#include "sweep/json.hh"

namespace perfbench
{

namespace
{

constexpr const char *kLabelPrefix = "perfbench-";

thread_local std::uint32_t benchSlot = 0;

/** Program spans that are layers of their own; the rest fold into
 *  their enclosing span's layer. */
std::string
programLayer(const std::string &name)
{
    if (name == "core.impulse_build" || name == "numeric.cg")
        return name;
    if (name == "core.steady_solve")
        return "core.steady";
    return "";
}

/** A bench span names its layer, except the replay threads' roots,
 *  whose self time is the loop overhead no layer claims. */
std::string
layerOf(const Span &s)
{
    if (s.program)
        return programLayer(s.name);
    return s.name == "replay.worker" ? "" : s.name;
}

} // namespace

void
SpanLog::add(Span s)
{
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(std::move(s));
}

std::vector<Span>
SpanLog::take()
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<Span> out;
    out.swap(spans);
    return out;
}

void
setBenchThread(std::uint32_t slot)
{
    benchSlot = slot;
    irtherm::obs::SpanRecorder::setThreadLabel(benchThreadLabel(slot));
}

std::string
benchThreadLabel(std::uint32_t slot)
{
    return kLabelPrefix + std::to_string(slot);
}

Timed::Timed(SpanLog *log_, const char *name) : log(log_)
{
    if (log == nullptr)
        return;
    span.name = name;
    span.thread = benchSlot;
    span.start = irtherm::obs::monotonicSeconds();
}

Timed::~Timed()
{
    if (log == nullptr)
        return;
    span.end = irtherm::obs::monotonicSeconds();
    log->add(std::move(span));
}

std::vector<Span>
programSpans(std::uint64_t *dropped)
{
    auto &rec = irtherm::obs::SpanRecorder::global();
    std::map<std::uint32_t, std::uint32_t> slotOf;
    const std::string prefix = kLabelPrefix;
    for (const auto &[index, label] : rec.threadLabels()) {
        if (label.compare(0, prefix.size(), prefix) == 0)
            slotOf[index] = static_cast<std::uint32_t>(
                std::stoul(label.substr(prefix.size())));
    }
    std::vector<Span> out;
    for (const irtherm::obs::SpanRecord &r : rec.snapshot()) {
        const auto it = slotOf.find(r.threadIndex);
        if (it == slotOf.end())
            continue;
        out.push_back({r.name, it->second, r.startSeconds,
                       r.startSeconds + r.durationSeconds, true});
    }
    if (dropped != nullptr)
        *dropped = rec.dropped();
    rec.clear();
    return out;
}

LayerTotals
attribute(const std::vector<Span> &spans)
{
    constexpr double kEps = 1e-9;
    std::map<std::uint32_t, std::vector<const Span *>> byThread;
    for (const Span &s : spans)
        byThread[s.thread].push_back(&s);

    LayerTotals t;
    for (auto &[thread, list] : byThread) {
        // Parents sort before their children: earlier start first,
        // then the longer span, then the bench span wrapping a
        // program span of the same extent.
        std::sort(list.begin(), list.end(),
                  [](const Span *a, const Span *b) {
                      if (a->start != b->start)
                          return a->start < b->start;
                      if (a->end != b->end)
                          return a->end > b->end;
                      return !a->program && b->program;
                  });
        struct Node
        {
            const Span *span;
            std::string layer; ///< resolved (own or inherited)
            double childSeconds = 0.0;
        };
        std::vector<Node> stack;
        const auto close = [&t](const Node &n) {
            const double self = std::max(
                0.0, (n.span->end - n.span->start) - n.childSeconds);
            if (!n.layer.empty()) {
                t.selfSeconds[n.layer] += self;
                t.attributedSeconds += self;
            }
        };
        for (const Span *s : list) {
            while (!stack.empty() &&
                   !(s->start >= stack.back().span->start - kEps &&
                     s->end <= stack.back().span->end + kEps)) {
                close(stack.back());
                stack.pop_back();
            }
            const double dur = s->end - s->start;
            std::string own = layerOf(*s);
            std::string inherited;
            if (stack.empty()) {
                t.rootSeconds += dur;
            } else {
                stack.back().childSeconds += dur;
                inherited = stack.back().layer;
            }
            if (!own.empty() && own != inherited)
                ++t.calls[own];
            stack.push_back({s, own.empty() ? inherited : own});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    return t;
}

MetricSnapshot
MetricSnapshot::take()
{
    using irtherm::sweep::JsonValue;
    const JsonValue doc = irtherm::sweep::parseJson(
        irtherm::obs::metricsToJson(irtherm::obs::MetricsRegistry::global()),
        "metrics registry");
    MetricSnapshot s;
    if (const JsonValue *c = doc.find("counters")) {
        for (const auto &[name, v] : c->members)
            s.counters[name] = v.number;
    }
    if (const JsonValue *timers = doc.find("timers")) {
        for (const auto &[name, v] : timers->members) {
            s.timerCount[name] = v.at("count").number;
            s.timerTotal[name] = v.at("total_s").number;
        }
    }
    return s;
}

MetricSnapshot
MetricSnapshot::since(const MetricSnapshot &before) const
{
    MetricSnapshot d = *this;
    const auto sub = [](std::map<std::string, double> &into,
                        const std::map<std::string, double> &from) {
        for (const auto &[name, v] : from)
            into[name] -= v;
    };
    sub(d.counters, before.counters);
    sub(d.timerCount, before.timerCount);
    sub(d.timerTotal, before.timerTotal);
    return d;
}

double
MetricSnapshot::counter(const std::string &name) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
}

double
MetricSnapshot::counterPrefix(const std::string &prefix) const
{
    double sum = 0.0;
    for (const auto &[name, v] : counters) {
        if (name.compare(0, prefix.size(), prefix) == 0)
            sum += v;
    }
    return sum;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    std::set<std::uint32_t> threads;
    bool first = true;
    for (const Span &s : spans) {
        threads.insert(s.thread);
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                      s.start * 1e6, (s.end - s.start) * 1e6, s.thread);
        out << (first ? "\n" : ",\n") << "{\"name\":\""
            << irtherm::obs::jsonEscape(s.name) << "\",\"cat\":\""
            << (s.program ? "program" : "bench") << "\",\"ph\":\"X\","
            << buf;
        first = false;
    }
    for (const std::uint32_t thread : threads) {
        out << (first ? "\n" : ",\n")
            << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
            << thread << ",\"args\":{\"name\":\""
            << (thread == 0 ? std::string("main")
                            : "worker" + std::to_string(thread - 1))
            << "\"}}";
        first = false;
    }
    out << "\n]}\n";
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

} // namespace perfbench
