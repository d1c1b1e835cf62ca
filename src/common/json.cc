#include "common/json.hh"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace unico::common {

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

namespace {

[[noreturn]] void
typeError(const char *want)
{
    throw std::runtime_error(std::string("json: not a ") + want);
}

} // namespace

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        typeError("bool");
    return bool_;
}

double
Json::asDouble() const
{
    if (type_ != Type::Number)
        typeError("number");
    return number_;
}

std::int64_t
Json::asInt() const
{
    if (type_ != Type::Number)
        typeError("number");
    // Finite, integral and in [-2^63, 2^63); NaN fails the range test.
    if (!(number_ >= -0x1p63 && number_ < 0x1p63) ||
        std::trunc(number_) != number_)
        throw std::runtime_error("json: not an integer in the int64 range");
    return static_cast<std::int64_t>(number_);
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        typeError("string");
    return string_;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    typeError("array/object");
}

const Json &
Json::at(std::size_t i) const
{
    if (type_ != Type::Array)
        typeError("array");
    if (i >= array_.size())
        throw std::runtime_error("json: array index out of range");
    return array_[i];
}

void
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        typeError("array");
    array_.push_back(std::move(v));
}

bool
Json::has(const std::string &key) const
{
    return type_ == Type::Object && object_.count(key) > 0;
}

const Json &
Json::at(const std::string &key) const
{
    if (type_ != Type::Object)
        typeError("object");
    auto it = object_.find(key);
    if (it == object_.end())
        throw std::runtime_error("json: missing key '" + key + "'");
    return it->second;
}

Json &
Json::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        typeError("object");
    return object_[key];
}

const std::map<std::string, Json> &
Json::members() const
{
    if (type_ != Type::Object)
        typeError("object");
    return object_;
}

namespace {

void
dumpString(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
dumpNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; encode as huge-magnitude sentinels
        // (checkpoints never contain them on healthy paths).
        out += v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
        return;
    }
    // %.17g round-trips IEEE-754 doubles exactly. to_chars with
    // general format and precision 17 is defined as printf's %.17g
    // in the C locale, without printf's format parsing and locale
    // lookups; checkpoints print about 10^4 numbers per save.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

} // namespace

void
JsonWriter::newline(std::size_t level)
{
    if (indent_ <= 0)
        return;
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) * level, ' ');
}

void
JsonWriter::separate()
{
    if (open_.back()++ > 0)
        out_ += ',';
    newline(level());
}

void
JsonWriter::beforeValue()
{
    if (afterKey_)
        afterKey_ = false; // a member value follows its key
    else if (!open_.empty())
        separate();        // an array element
}

void
JsonWriter::close(char bracket)
{
    assert(!open_.empty() && !afterKey_);
    const bool empty = open_.back() == 0;
    open_.pop_back();
    if (!empty)
        newline(level());
    out_ += bracket;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out_ += '[';
    open_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    close(']');
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out_ += '{';
    open_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    close('}');
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    assert(!open_.empty() && !afterKey_);
    separate();
    dumpString(out_, k);
    out_ += indent_ > 0 ? ": " : ":";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::boolean(bool b)
{
    beforeValue();
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::number(double v)
{
    beforeValue();
    dumpNumber(out_, v);
    return *this;
}

JsonWriter &
JsonWriter::string(std::string_view s)
{
    beforeValue();
    dumpString(out_, s);
    return *this;
}

void
Json::writeTo(JsonWriter &w) const
{
    switch (type_) {
      case Type::Null:
        w.null();
        break;
      case Type::Bool:
        w.boolean(bool_);
        break;
      case Type::Number:
        w.number(number_);
        break;
      case Type::String:
        w.string(string_);
        break;
      case Type::Array:
        w.beginArray();
        for (const auto &v : array_)
            v.writeTo(w);
        w.endArray();
        break;
      case Type::Object:
        w.beginObject();
        for (const auto &[key, v] : object_) {
            w.key(key);
            v.writeTo(w);
        }
        w.endObject();
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    JsonWriter w(out, indent);
    writeTo(w);
    return out;
}

namespace {

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json v = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        const char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Json(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Json(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Json(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Json();
            fail("bad literal");
          default: return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string s;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return s;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"': s += '"'; break;
                  case '\\': s += '\\'; break;
                  case '/': s += '/'; break;
                  case 'b': s += '\b'; break;
                  case 'f': s += '\f'; break;
                  case 'n': s += '\n'; break;
                  case 'r': s += '\r'; break;
                  case 't': s += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad hex digit");
                    }
                    // Checkpoints only escape control chars; encode
                    // the code point as UTF-8.
                    if (code < 0x80) {
                        s += static_cast<char>(code);
                    } else if (code < 0x800) {
                        s += static_cast<char>(0xc0 | (code >> 6));
                        s += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        s += static_cast<char>(0xe0 | (code >> 12));
                        s += static_cast<char>(0x80 |
                                               ((code >> 6) & 0x3f));
                        s += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default: fail("bad escape");
                }
            } else {
                s += c;
            }
        }
        fail("unterminated string");
    }

    bool
    digitAt(std::size_t i) const
    {
        return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
    }

    /** An RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
     *  whose value is finite. */
    Json
    parseNumber()
    {
        skipSpace();
        std::size_t p = pos_;
        if (p < text_.size() && text_[p] == '-')
            ++p;
        if (!digitAt(p))
            fail("bad number");
        if (text_[p++] != '0')
            while (digitAt(p))
                ++p;
        if (p < text_.size() && text_[p] == '.') {
            if (!digitAt(++p))
                fail("bad number");
            while (digitAt(p))
                ++p;
        }
        if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
            ++p;
            if (p < text_.size() && (text_[p] == '+' || text_[p] == '-'))
                ++p;
            if (!digitAt(p))
                fail("bad number");
            while (digitAt(p))
                ++p;
        }
        // strtod must read exactly the scanned text: it would go on
        // past a leading zero ("01", "0x10").
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end != text_.c_str() + p)
            fail("bad number");
        if (std::isinf(v))
            fail("number out of range");
        pos_ = p;
        return Json(v);
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.push(parseValue());
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return arr;
            }
            fail("expected ',' or ']'");
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj = Json::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skipSpace();
            std::string key = parseString();
            expect(':');
            obj[key] = parseValue();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return obj;
            }
            fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

std::string
hexU64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
parseHexU64(const std::string &s)
{
    return static_cast<std::uint64_t>(
        std::strtoull(s.c_str(), nullptr, 16));
}

} // namespace unico::common
