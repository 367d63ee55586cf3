#include "base/str.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "base/errors.hh"
#include "base/logging.hh"

namespace irtherm
{

std::string
trim(const std::string &s)
{
    std::size_t begin = 0;
    while (begin < s.size() &&
           std::isspace(static_cast<unsigned char>(s[begin]))) {
        ++begin;
    }
    std::size_t end = s.size();
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1]))) {
        --end;
    }
    return s.substr(begin, end - begin);
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string token;
    std::istringstream iss(s);
    while (std::getline(iss, token, delim))
        out.push_back(token);
    if (!s.empty() && s.back() == delim)
        out.push_back("");
    return out;
}

std::vector<std::string>
splitWhitespace(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream iss(s);
    std::string token;
    while (iss >> token)
        out.push_back(token);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

double
parseDouble(const std::string &s, const std::string &context)
{
    // Malformed numbers are user input errors: throw the taxonomy's
    // ConfigError (still a FatalError) so batch runners classify them
    // as deterministic rather than retryable.
    const std::string t = trim(s);
    if (t.empty())
        configError(context, ": empty numeric field");
    char *end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0')
        configError(context, ": invalid number '", t, "'");
    return v;
}

std::string
formatFixed(double value, int precision)
{
    // "%.*f" is what an ostringstream in fixed mode prints (it
    // formats through the same conversion), without building a
    // stream per number.
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    if (n < static_cast<int>(sizeof buf))
        return std::string(buf, static_cast<std::size_t>(n));
    std::string out(static_cast<std::size_t>(n), '\0');
    std::snprintf(out.data(), out.size() + 1, "%.*f", precision, value);
    return out;
}

} // namespace irtherm
