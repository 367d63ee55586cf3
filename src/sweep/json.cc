#include "sweep/json.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/errors.hh"
#include "base/logging.hh"
#include "obs/export.hh"

namespace irtherm::sweep
{

namespace
{

/** Cursor over the input with line/column tracking for errors. */
class Parser
{
  public:
    Parser(const std::string &text, const std::string &context)
        : s(text), ctx(context)
    {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWhitespace();
        if (pos != s.size())
            fail("trailing content after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        configError(ctx, ": line ", line, " col ", col, ": ", what);
    }

    char
    peek() const
    {
        return pos < s.size() ? s[pos] : '\0';
    }

    char
    next()
    {
        if (pos >= s.size())
            fail("unexpected end of input");
        const char c = s[pos++];
        if (c == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
        return c;
    }

    void
    expect(char want)
    {
        const char got = next();
        if (got != want)
            fail(std::string("expected '") + want + "', got '" + got +
                 "'");
    }

    void
    skipWhitespace()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            next();
    }

    void
    expectWord(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (peek() != *p)
                fail(std::string("expected '") + word + "'");
            next();
        }
    }

    JsonValue
    parseValue()
    {
        skipWhitespace();
        if (pos >= s.size())
            fail("unexpected end of input");
        const char c = peek();
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't': {
            expectWord("true");
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
          }
          case 'f': {
            expectWord("false");
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            return v;
          }
          case 'n': {
            expectWord("null");
            return JsonValue{};
          }
          default:
            if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
                return parseNumber();
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skipWhitespace();
        if (peek() == '}') {
            next();
            return v;
        }
        while (true) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected a string object key");
            JsonValue key = parseString();
            for (const auto &m : v.members) {
                if (m.first == key.text)
                    fail("duplicate object key '" + key.text + "'");
            }
            skipWhitespace();
            expect(':');
            v.members.emplace_back(key.text, parseValue());
            skipWhitespace();
            const char c = next();
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skipWhitespace();
        if (peek() == ']') {
            next();
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            skipWhitespace();
            const char c = next();
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (true) {
            const char c = next();
            if (c == '"')
                return v;
            if (c != '\\') {
                v.text += c;
                continue;
            }
            const char esc = next();
            switch (esc) {
              case '"':
                v.text += '"';
                break;
              case '\\':
                v.text += '\\';
                break;
              case '/':
                v.text += '/';
                break;
              case 'b':
                v.text += '\b';
                break;
              case 'f':
                v.text += '\f';
                break;
              case 'n':
                v.text += '\n';
                break;
              case 'r':
                v.text += '\r';
                break;
              case 't':
                v.text += '\t';
                break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = next();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // UTF-8 encode the basic-multilingual-plane code
                // point (plan files are ASCII in practice; surrogate
                // pairs are rejected rather than mis-encoded).
                if (code >= 0xD800 && code <= 0xDFFF)
                    fail("surrogate \\u escapes are not supported");
                if (code < 0x80) {
                    v.text += static_cast<char>(code);
                } else if (code < 0x800) {
                    v.text += static_cast<char>(0xC0 | (code >> 6));
                    v.text += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    v.text += static_cast<char>(0xE0 | (code >> 12));
                    v.text +=
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    v.text += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail(std::string("bad escape '\\") + esc + "'");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            next();
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            fail("malformed number");
        while (std::isdigit(static_cast<unsigned char>(peek())))
            next();
        if (peek() == '.') {
            next();
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                fail("malformed number: digit required after '.'");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                next();
        }
        if (peek() == 'e' || peek() == 'E') {
            next();
            if (peek() == '+' || peek() == '-')
                next();
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                fail("malformed number: digit required in exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                next();
        }
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const std::string lexeme = s.substr(start, pos - start);
        char *end = nullptr;
        v.number = std::strtod(lexeme.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail("malformed number '" + lexeme + "'");
        return v;
    }

    const std::string &s;
    const std::string &ctx;
    std::size_t pos = 0;
    std::size_t line = 1;
    std::size_t col = 1;
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (!isObject())
        panic("JsonValue::find on a non-object");
    for (const auto &m : members) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (v == nullptr)
        configError("json: missing required key '", key, "'");
    return *v;
}

const char *
JsonValue::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return "bool";
      case Kind::Number:
        return "number";
      case Kind::String:
        return "string";
      case Kind::Array:
        return "array";
      case Kind::Object:
        return "object";
    }
    return "?";
}

JsonValue
parseJson(const std::string &text, const std::string &context)
{
    Parser p(text, context);
    return p.parseDocument();
}

JsonValue
loadJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        ioError("json: cannot open '", path, "'");
    std::ostringstream body;
    body << in.rdbuf();
    return parseJson(body.str(), path);
}

std::string
scalarToString(const JsonValue &v, const std::string &context)
{
    switch (v.kind) {
      case JsonValue::Kind::String:
        return v.text;
      case JsonValue::Kind::Bool:
        return v.boolean ? "1" : "0";
      case JsonValue::Kind::Number:
        // Shortest round-trip form: unique per double, so it is safe
        // as canonical hash input, and "0.1" stays "0.1" in job names.
        return obs::jsonNumber(v.number);
      default:
        configError(context, ": expected a scalar, got ",
              JsonValue::kindName(v.kind));
    }
}

} // namespace irtherm::sweep
