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
