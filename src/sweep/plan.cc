#include "sweep/plan.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "base/errors.hh"
#include "base/logging.hh"
#include "sweep/json.hh"

namespace irtherm::sweep
{

namespace
{

/** Flatten a (possibly nested) JSON object into dotted spec keys. */
void
flattenInto(ScenarioSpec &spec, const JsonValue &obj,
            const std::string &prefix, const std::string &ctx)
{
    if (!obj.isObject())
        configError(ctx, ": expected an object");
    for (const auto &[key, value] : obj.members) {
        const std::string full =
            prefix.empty() ? key : prefix + "." + key;
        if (value.isObject())
            flattenInto(spec, value, full, ctx);
        else
            spec.set(full, scalarToString(value, ctx + " key '" +
                                                     full + "'"));
    }
}

} // namespace

SweepPlan
SweepPlan::parse(const std::string &json_text, const std::string &context)
{
    const JsonValue doc = parseJson(json_text, context);
    if (!doc.isObject())
        configError(context, ": plan must be a JSON object");

    SweepPlan plan;
    for (const auto &[key, value] : doc.members) {
        if (key == "name") {
            if (!value.isString())
                configError(context, ": 'name' must be a string");
            plan.planName = value.text;
        } else if (key == "base") {
            flattenInto(plan.baseSpec, value, "", context + ": base");
        } else if (key == "scenarios") {
            if (!value.isArray())
                configError(context, ": 'scenarios' must be an array");
            for (std::size_t i = 0; i < value.items.size(); ++i) {
                ScenarioSpec s;
                flattenInto(s, value.items[i], "",
                            context + ": scenarios[" +
                                std::to_string(i) + "]");
                plan.explicitScenarios.push_back(std::move(s));
            }
        } else if (key == "axes") {
            if (!value.isObject())
                configError(context, ": 'axes' must be an object");
            for (const auto &[axisKey, axisValues] : value.members) {
                if (!axisValues.isArray() || axisValues.items.empty()) {
                    configError(context, ": axis '", axisKey,
                          "' must be a non-empty array");
                }
                SweepAxis axis;
                axis.key = axisKey;
                for (const JsonValue &v : axisValues.items) {
                    axis.values.push_back(scalarToString(
                        v, context + ": axis '" + axisKey + "'"));
                }
                plan.axisList.push_back(std::move(axis));
            }
            // Canonical expansion order, independent of how the plan
            // file happened to order the axes object.
            std::sort(plan.axisList.begin(), plan.axisList.end(),
                      [](const SweepAxis &a, const SweepAxis &b) {
                          return a.key < b.key;
                      });
        } else {
            configError(context, ": unknown plan key '", key, "'");
        }
    }
    return plan;
}

SweepPlan
SweepPlan::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        ioError("sweep plan: cannot open '", path, "'");
    std::ostringstream body;
    body << in.rdbuf();
    return parse(body.str(), path);
}

std::size_t
SweepPlan::jobCount() const
{
    std::size_t n =
        explicitScenarios.empty() ? 1 : explicitScenarios.size();
    for (const SweepAxis &axis : axisList)
        n *= axis.values.size();
    return n;
}

std::vector<ScenarioSpec>
SweepPlan::expand() const
{
    // Each expansion starts from base + explicit-scenario overrides.
    std::vector<ScenarioSpec> stems;
    if (explicitScenarios.empty()) {
        stems.push_back(baseSpec);
    } else {
        for (const ScenarioSpec &scenario : explicitScenarios) {
            ScenarioSpec stem = baseSpec;
            for (const auto &[key, value] : scenario.settings())
                stem.set(key, value);
            stems.push_back(std::move(stem));
        }
    }

    std::vector<ScenarioSpec> jobs;
    jobs.reserve(jobCount());
    std::vector<std::size_t> odometer(axisList.size(), 0);
    for (const ScenarioSpec &stem : stems) {
        std::fill(odometer.begin(), odometer.end(), 0);
        while (true) {
            ScenarioSpec job = stem;
            std::string suffix;
            for (std::size_t a = 0; a < axisList.size(); ++a) {
                const SweepAxis &axis = axisList[a];
                const std::string &value = axis.values[odometer[a]];
                job.set(axis.key, value);
                const std::size_t dot = axis.key.rfind('.');
                const std::string shortKey =
                    dot == std::string::npos ? axis.key
                                             : axis.key.substr(dot + 1);
                if (!suffix.empty())
                    suffix += ',';
                suffix += shortKey + "=" + value;
            }
            if (!suffix.empty()) {
                const std::string *stemName = stem.find("name");
                const std::string prefix =
                    stemName != nullptr ? *stemName : planName;
                job.set("name", prefix + "/" + suffix);
            } else if (stem.find("name") == nullptr) {
                job.set("name", planName);
            }
            jobs.push_back(std::move(job));

            // Advance the odometer, last axis fastest; a full wrap
            // (or no axes at all) ends this stem's expansion.
            bool wrapped = true;
            for (std::size_t a = axisList.size(); a-- > 0;) {
                if (++odometer[a] < axisList[a].values.size()) {
                    wrapped = false;
                    break;
                }
                odometer[a] = 0;
            }
            if (wrapped)
                break;
        }
    }
    return jobs;
}

} // namespace irtherm::sweep
