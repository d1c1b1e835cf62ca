/**
 * @file
 * Tests for the minimal JSON value type used by checkpoint files:
 * parse/dump round-trips, exact double round-trips, the exact text
 * of dumped doubles, hex encoding of 64-bit integers and
 * malformed-input rejection.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/json.hh"
#include "common/rng.hh"

using unico::common::Json;
using unico::common::hexU64;
using unico::common::parseHexU64;

TEST(Json, ScalarAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(true).asBool());
    EXPECT_DOUBLE_EQ(Json(2.5).asDouble(), 2.5);
    EXPECT_EQ(Json(42).asInt(), 42);
    EXPECT_EQ(Json("hi").asString(), "hi");
}

TEST(Json, TypeMismatchThrows)
{
    EXPECT_THROW(Json(1.0).asString(), std::runtime_error);
    EXPECT_THROW(Json("x").asDouble(), std::runtime_error);
    EXPECT_THROW(Json().asBool(), std::runtime_error);
}

TEST(Json, ObjectAndArrayRoundTrip)
{
    Json doc = Json::object();
    doc["name"] = Json("unico");
    doc["count"] = Json(3);
    Json arr = Json::array();
    arr.push(Json(1.5));
    arr.push(Json(false));
    arr.push(Json());
    doc["items"] = std::move(arr);

    const Json back = Json::parse(doc.dump(2));
    EXPECT_EQ(back.at("name").asString(), "unico");
    EXPECT_EQ(back.at("count").asInt(), 3);
    ASSERT_EQ(back.at("items").size(), 3u);
    EXPECT_DOUBLE_EQ(back.at("items").at(0).asDouble(), 1.5);
    EXPECT_FALSE(back.at("items").at(1).asBool());
    EXPECT_TRUE(back.at("items").at(2).isNull());
}

TEST(Json, DoublesRoundTripExactly)
{
    // 17 significant digits reproduce any IEEE-754 double exactly —
    // checkpoint resume depends on this.
    const double values[] = {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23,
                             -123456.789012345678, 2.2250738585072014e-308};
    for (double v : values) {
        Json arr = Json::array();
        arr.push(v);
        const Json back = Json::parse(arr.dump());
        EXPECT_EQ(back.at(0).asDouble(), v); // bitwise-exact
    }
}

TEST(Json, DoublesDumpAsPrintfG17)
{
    // Checkpoint CRCs and the end-to-end digests cover the dumped
    // text, not just the parsed values, so a finite double must dump
    // exactly as printf("%.17g") prints it.
    const auto g17 = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };
    const double edges[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            DBL_MIN,
                            DBL_MAX,
                            -DBL_MAX,
                            0.1,
                            1e21,
                            1e-7,
                            9007199254740994.0}; // 2^53 + 2
    for (double v : edges)
        EXPECT_EQ(Json(v).dump(), g17(v)) << "bits " << std::hex
                                          << std::bit_cast<std::uint64_t>(v);
    unico::common::Rng rng(2026);
    int checked = 0;
    while (checked < 100000) {
        const double v = std::bit_cast<double>(rng.next());
        if (!std::isfinite(v))
            continue;
        ++checked;
        const std::string text = Json(v).dump();
        if (text != g17(v)) {
            ADD_FAILURE() << "bits " << std::hex
                          << std::bit_cast<std::uint64_t>(v) << ": "
                          << text << " vs " << g17(v);
            break;
        }
    }
}

TEST(Json, DeterministicDump)
{
    // Objects are ordered maps: dumping the same content built in a
    // different insertion order yields the identical string.
    Json a = Json::object();
    a["x"] = Json(1);
    a["y"] = Json(2);
    Json b = Json::object();
    b["y"] = Json(2);
    b["x"] = Json(1);
    EXPECT_EQ(a.dump(2), b.dump(2));
}

TEST(Json, StringEscapes)
{
    const std::string nasty = "quote\" backslash\\ newline\n tab\t";
    Json doc = Json::object();
    doc["s"] = Json(nasty);
    EXPECT_EQ(Json::parse(doc.dump()).at("s").asString(), nasty);
}

TEST(Json, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(Json::parse("tru"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1] trailing"), std::runtime_error);
    // Numbers outside the RFC 8259 grammar, and values that overflow
    // to infinity.
    for (const char *bad :
         {"4294967302x", "NaN", "-nan", "nan", "0x10", "+1", "1e999",
          "-1e999", "Infinity", "-Infinity", ".5", "5.", "01", "-01", "-",
          "1e", "1e+", "1.e5", "[01]", "{\"a\": 0x10}", "[+1]"})
        EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
    for (const char *good :
         {"0", "-0", "5", "-5.25", "1e3", "1E-3", "1.5e+300", "4294967302",
          "1e-400", "4.9406564584124654e-324", "1e308", "-1e308"})
        EXPECT_NO_THROW(Json::parse(good)) << good;
}

TEST(Json, AsIntRequiresAnInt64Integer)
{
    EXPECT_EQ(Json::parse("4294967302").asInt(), 4294967302LL);
    EXPECT_EQ(Json::parse("-9223372036854775808").asInt(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(Json::parse("1e3").asInt(), 1000);
    for (const char *bad : {"6.4", "-0.5", "9223372036854775808", "1e19",
                            "-1e19", "1e308"})
        EXPECT_THROW(Json::parse(bad).asInt(), std::runtime_error) << bad;
    EXPECT_THROW(Json(std::nan("")).asInt(), std::runtime_error);
    EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).asInt(),
                 std::runtime_error);
}

TEST(Json, MissingKeyThrows)
{
    const Json doc = Json::parse("{\"a\": 1}");
    EXPECT_THROW(doc.at("b"), std::runtime_error);
    EXPECT_TRUE(doc.has("a"));
    EXPECT_FALSE(doc.has("b"));
}

TEST(Json, HexU64RoundTrip)
{
    const std::uint64_t values[] = {
        0ULL, 1ULL, 0x9e3779b97f4a7c15ULL,
        std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t v : values)
        EXPECT_EQ(parseHexU64(hexU64(v)), v);
}

namespace {

using unico::common::JsonArrayCache;
using unico::common::JsonWriter;

/** Json::dump() as the recursive printer it was before it became a
 *  walk over JsonWriter: the layout both must keep. */
void
oracleDump(const Json &v, std::string &out, int indent, int depth)
{
    const auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    const auto string = [&](const std::string &s) {
        out += '"';
        for (const char c : s) {
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
    };
    switch (v.type()) {
      case Json::Type::Null: out += "null"; break;
      case Json::Type::Bool: out += v.asBool() ? "true" : "false"; break;
      case Json::Type::Number: {
        const double d = v.asDouble();
        if (!std::isfinite(d)) {
            out += d > 0 ? "1e308" : (d < 0 ? "-1e308" : "0");
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", d);
            out += buf;
        }
        break;
      }
      case Json::Type::String: string(v.asString()); break;
      case Json::Type::Array:
        out += '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(depth + 1);
            oracleDump(v.at(i), out, indent, depth + 1);
        }
        if (v.size() > 0)
            newline(depth);
        out += ']';
        break;
      case Json::Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, member] : v.members()) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            string(key);
            out += indent > 0 ? ": " : ":";
            oracleDump(member, out, indent, depth + 1);
        }
        if (!v.members().empty())
            newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
oracleDump(const Json &v, int indent)
{
    std::string out;
    oracleDump(v, out, indent, 0);
    return out;
}

/** Write @p v through the public JsonWriter calls. */
void
writeWalk(const Json &v, JsonWriter &w)
{
    switch (v.type()) {
      case Json::Type::Null: w.null(); break;
      case Json::Type::Bool: w.boolean(v.asBool()); break;
      case Json::Type::Number: w.number(v.asDouble()); break;
      case Json::Type::String: w.string(v.asString()); break;
      case Json::Type::Array:
        w.beginArray();
        for (std::size_t i = 0; i < v.size(); ++i)
            writeWalk(v.at(i), w);
        w.endArray();
        break;
      case Json::Type::Object:
        w.beginObject();
        for (const auto &[key, member] : v.members()) {
            w.key(key);
            writeWalk(member, w);
        }
        w.endObject();
        break;
    }
}

double
randomNumber(unico::common::Rng &rng)
{
    switch (rng.uniformInt(std::uint64_t{8})) {
      case 0: return std::numeric_limits<double>::infinity();
      case 1: return -std::numeric_limits<double>::infinity();
      case 2: return std::numeric_limits<double>::quiet_NaN();
      case 3: return -0.0;
      case 4: return static_cast<double>(rng.uniformInt(std::uint64_t{1000}));
      case 5: return std::ldexp(rng.gaussian(), static_cast<int>(
                                                    rng.uniformInt(2000)) -
                                                    1000);
      default: return rng.gaussian();
    }
}

std::string
randomString(unico::common::Rng &rng)
{
    static const char kChars[] = {'a', 'Z', '0', ' ', '"', '\\', '\n', '\r',
                                  '\t', '\x01', '\x1f', '\x7f', '\xc3',
                                  '\xa9', '/', ':'};
    std::string s;
    const std::size_t len = rng.uniformInt(std::uint64_t{8});
    for (std::size_t i = 0; i < len; ++i)
        s += kChars[rng.uniformInt(sizeof(kChars))];
    return s;
}

Json
randomDocument(unico::common::Rng &rng, int depth)
{
    const std::uint64_t kind =
        rng.uniformInt(std::uint64_t{depth > 0 ? 7u : 4u});
    switch (kind) {
      case 0: return Json();
      case 1: return Json(rng.bernoulli(0.5));
      case 2: return Json(randomNumber(rng));
      case 3: return Json(randomString(rng));
      case 4:
      case 5: {
        Json arr = Json::array();
        const std::size_t n = rng.uniformInt(std::uint64_t{5});
        for (std::size_t i = 0; i < n; ++i)
            arr.push(randomDocument(rng, depth - 1));
        return arr;
      }
      default: {
        Json obj = Json::object();
        const std::size_t n = rng.uniformInt(std::uint64_t{5});
        for (std::size_t i = 0; i < n; ++i)
            obj[randomString(rng)] = randomDocument(rng, depth - 1);
        return obj;
      }
    }
}

} // namespace

TEST(JsonWriter, MatchesDumpOnRandomDocuments)
{
    // dump() is a walk over JsonWriter; both must print the recursive
    // printer's text, compact and pretty, for every value kind:
    // non-finite numbers, escapes, empty and nested containers.
    unico::common::Rng rng(71);
    for (int doc = 0; doc < 2000; ++doc) {
        const Json v = randomDocument(rng, 4);
        for (const int indent : {0, 2}) {
            const std::string want = oracleDump(v, indent);
            ASSERT_EQ(v.dump(indent), want) << "doc " << doc;
            std::string got;
            JsonWriter w(got, indent);
            writeWalk(v, w);
            ASSERT_EQ(got, want) << "doc " << doc;
        }
    }
}

TEST(JsonWriter, CachedArrayFormatsEachElementOnce)
{
    // An array that only grows: each element is written by the first
    // call that sees it, and every call prints the plain array's text.
    // A shrunk array, or one at another nesting level, is written anew.
    std::vector<double> values;
    JsonArrayCache cache;
    int written = 0;
    const auto doc = [&](JsonArrayCache &c, int indent) {
        std::string out;
        JsonWriter w(out, indent);
        w.beginObject().key("a").cachedArray(
            c, values.size(), [&](JsonWriter &e, std::size_t i) {
                ++written;
                e.beginArray().number(values[i]).endArray();
            });
        w.key("b").boolean(true).endObject();
        return out;
    };
    const auto plain = [&](int indent) {
        Json v = Json::object();
        Json a = Json::array();
        for (const double x : values) {
            Json inner = Json::array();
            inner.push(x);
            a.push(std::move(inner));
        }
        v["a"] = std::move(a);
        v["b"] = Json(true);
        return v.dump(indent);
    };
    EXPECT_EQ(doc(cache, 2), plain(2)); // empty
    for (int step = 1; step <= 4; ++step) {
        values.push_back(0.5 * step);
        values.push_back(-1.0 / step);
        written = 0;
        EXPECT_EQ(doc(cache, 2), plain(2));
        EXPECT_EQ(written, 2) << "only the appended elements";
        EXPECT_EQ(cache.size(), values.size());
    }
    values.resize(3);
    written = 0;
    EXPECT_EQ(doc(cache, 2), plain(2));
    EXPECT_EQ(written, 3) << "a shrink rewrites every element";
    written = 0;
    EXPECT_EQ(doc(cache, 0), plain(0));
    EXPECT_EQ(written, 3) << "another layout rewrites every element";
    cache.clear();
    written = 0;
    EXPECT_EQ(doc(cache, 0), plain(0));
    EXPECT_EQ(written, 3);
}
