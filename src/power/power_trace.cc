#include "power/power_trace.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "base/logging.hh"
#include "base/str.hh"

namespace irtherm
{

namespace
{

/** Split @p line at whitespace (the C locale's isspace set) into
 *  views of its fields. */
void
splitFields(const std::string &line, std::vector<std::string_view> &out)
{
    out.clear();
    const auto space = [](char c) {
        return c == ' ' || (c >= '\t' && c <= '\r');
    };
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && space(line[i]))
            ++i;
        const std::size_t begin = i;
        while (i < line.size() && !space(line[i]))
            ++i;
        if (i > begin)
            out.emplace_back(line.data() + begin, i - begin);
    }
}

/**
 * One ptrace value. from_chars and strtod are both correctly
 * rounded, so they agree wherever from_chars accepts the whole field
 * with a finite result; anything else (a '+' sign, hex, inf/nan,
 * out of range, malformed) goes through parseDouble, which keeps the
 * accepted inputs and the error text.
 */
double
parseValue(std::string_view field, std::size_t lineno)
{
    double v = 0.0;
    const char *end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, v);
    if (ec == std::errc() && ptr == end && std::isfinite(v))
        return v;
    return parseDouble(std::string(field),
                       "ptrace line " + std::to_string(lineno));
}

} // namespace

PowerTrace::PowerTrace(std::vector<std::string> unit_names,
                       double sample_interval)
    : names(std::move(unit_names)), interval(sample_interval)
{
    if (names.empty())
        fatal("PowerTrace: no unit names");
    if (interval <= 0.0)
        fatal("PowerTrace: non-positive sample interval");
}

void
PowerTrace::addSample(std::vector<double> powers)
{
    if (powers.size() != names.size()) {
        fatal("PowerTrace::addSample: got ", powers.size(),
              " powers, expected ", names.size());
    }
    for (double p : powers) {
        if (p < 0.0)
            fatal("PowerTrace::addSample: negative power ", p);
    }
    samples.push_back(std::move(powers));
}

const std::vector<double> &
PowerTrace::sample(std::size_t i) const
{
    return samples.at(i);
}

std::vector<double>
PowerTrace::averagePowers() const
{
    if (samples.empty())
        fatal("PowerTrace: no samples");
    std::vector<double> avg(names.size(), 0.0);
    for (const auto &s : samples) {
        for (std::size_t u = 0; u < avg.size(); ++u)
            avg[u] += s[u];
    }
    for (double &v : avg)
        v /= static_cast<double>(samples.size());
    return avg;
}

std::vector<double>
PowerTrace::peakPowers() const
{
    if (samples.empty())
        fatal("PowerTrace: no samples");
    std::vector<double> peak(names.size(), 0.0);
    for (const auto &s : samples) {
        for (std::size_t u = 0; u < peak.size(); ++u)
            peak[u] = std::max(peak[u], s[u]);
    }
    return peak;
}

double
PowerTrace::totalPower(std::size_t i) const
{
    const auto &s = sample(i);
    double t = 0.0;
    for (double p : s)
        t += p;
    return t;
}

double
PowerTrace::averageTotalPower() const
{
    const std::vector<double> avg = averagePowers();
    double t = 0.0;
    for (double p : avg)
        t += p;
    return t;
}

PowerTrace
PowerTrace::reorderedFor(const Floorplan &fp) const
{
    std::vector<std::size_t> col(fp.blockCount());
    std::vector<std::string> new_names(fp.blockCount());
    for (std::size_t b = 0; b < fp.blockCount(); ++b) {
        const std::string &want = fp.block(b).name;
        const auto it = std::find(names.begin(), names.end(), want);
        if (it == names.end())
            fatal("PowerTrace: no column for block '", want, "'");
        col[b] = static_cast<std::size_t>(it - names.begin());
        new_names[b] = want;
    }
    PowerTrace out(new_names, interval);
    for (const auto &s : samples) {
        std::vector<double> row(fp.blockCount());
        for (std::size_t b = 0; b < fp.blockCount(); ++b)
            row[b] = s[col[b]];
        out.addSample(std::move(row));
    }
    return out;
}

PowerTrace
PowerTrace::decimated(std::size_t factor) const
{
    if (factor == 0)
        fatal("PowerTrace::decimated: zero factor");
    PowerTrace out(names, interval * static_cast<double>(factor));
    for (std::size_t s = 0; s + factor <= samples.size(); s += factor) {
        std::vector<double> acc(names.size(), 0.0);
        for (std::size_t k = 0; k < factor; ++k) {
            for (std::size_t u = 0; u < acc.size(); ++u)
                acc[u] += samples[s + k][u];
        }
        for (double &v : acc)
            v /= static_cast<double>(factor);
        out.addSample(std::move(acc));
    }
    return out;
}

PowerTrace
PowerTrace::parsePtrace(std::istream &in, double sample_interval)
{
    // Fields are views into the current line: no per-value copies.
    std::string line;
    std::vector<std::string_view> tok;
    const auto skip = [&] { return tok.empty() || tok[0][0] == '#'; };

    // Header: unit names.
    std::vector<std::string> header;
    while (std::getline(in, line)) {
        splitFields(line, tok);
        if (skip())
            continue;
        header.assign(tok.begin(), tok.end());
        break;
    }
    if (header.empty())
        fatal("ptrace: missing header line");

    PowerTrace trace(header, sample_interval);
    std::size_t lineno = 1;
    while (std::getline(in, line)) {
        ++lineno;
        splitFields(line, tok);
        if (skip())
            continue;
        if (tok.size() != header.size()) {
            fatal("ptrace line ", lineno, ": expected ", header.size(),
                  " values, got ", tok.size());
        }
        std::vector<double> row(tok.size());
        for (std::size_t u = 0; u < tok.size(); ++u)
            row[u] = parseValue(tok[u], lineno);
        trace.addSample(std::move(row));
    }
    return trace;
}

PowerTrace
PowerTrace::loadPtrace(const std::string &path, double sample_interval)
{
    std::ifstream in(path);
    if (!in)
        fatal("PowerTrace: cannot open '", path, "'");
    return parsePtrace(in, sample_interval);
}

void
PowerTrace::writePtrace(std::ostream &out) const
{
    for (std::size_t u = 0; u < names.size(); ++u)
        out << names[u] << (u + 1 < names.size() ? " " : "\n");
    std::ostringstream oss;
    oss.precision(6);
    for (const auto &s : samples) {
        oss.str("");
        for (std::size_t u = 0; u < s.size(); ++u)
            oss << s[u] << (u + 1 < s.size() ? " " : "\n");
        out << oss.str();
    }
}

} // namespace irtherm
