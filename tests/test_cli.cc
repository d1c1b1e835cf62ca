/**
 * @file
 * Unit tests for the command-line option parser and the JobSpec
 * co_search_cli parses from it.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/cli.hh"
#include "core/run_spec.hh"

using unico::common::CliArgs;

namespace {

CliArgs
parse(std::initializer_list<const char *> argv)
{
    std::vector<const char *> v(argv);
    return CliArgs(static_cast<int>(v.size()), v.data());
}

} // namespace

TEST(Cli, ParsesKeyValuePairs)
{
    const auto args = parse({"prog", "--seed", "42", "--out", "x.csv"});
    EXPECT_EQ(args.getInt("seed", 0), 42);
    EXPECT_EQ(args.getString("out", ""), "x.csv");
}

TEST(Cli, EqualsSyntax)
{
    const auto args = parse({"prog", "--scale=0.5"});
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 1.0), 0.5);
}

TEST(Cli, FlagsWithoutValues)
{
    const auto args = parse({"prog", "--verbose", "--seed", "3"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.getInt("seed", 0), 3);
}

TEST(Cli, DefaultsWhenAbsent)
{
    const auto args = parse({"prog"});
    EXPECT_FALSE(args.has("seed"));
    EXPECT_EQ(args.getInt("seed", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 2.5), 2.5);
    EXPECT_EQ(args.getString("out", "def"), "def");
}

TEST(Cli, PositionalArguments)
{
    const auto args = parse({"prog", "input.txt", "--k", "1", "more"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "input.txt");
    EXPECT_EQ(args.positional()[1], "more");
    EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, NegativeNumbers)
{
    const auto args = parse({"prog", "--offset", "-12"});
    EXPECT_EQ(args.getInt("offset", 0), -12);
}

TEST(Cli, NumbersMustBeTheWholeValue)
{
    // A prefix is no number: each of these once read as the digits it
    // starts with (or as 0), and now names the flag instead.
    for (const char *text : {"abc", "2x", "5s", "", "1.5", "0x10", " 3",
                             "9223372036854775808"}) {
        SCOPED_TRACE(text);
        const auto args = parse({"prog", "--workers", text});
        try {
            args.getInt("workers", 0);
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()).rfind("--workers: ", 0), 0u)
                << e.what();
        }
    }
    for (const char *text : {"lots", "2.5x", "", "nan", "inf", "-inf",
                             "1e999", "0x1p3"}) {
        SCOPED_TRACE(text);
        const auto args = parse({"prog", "--scale", text});
        EXPECT_THROW(args.getDouble("scale", 1.0), std::invalid_argument);
    }
    // A bare flag has no value to parse.
    EXPECT_THROW(parse({"prog", "--seed", "--scale", "1"}).getInt("seed", 0),
                 std::invalid_argument);
    const auto ok = parse({"prog", "--seed", "-3", "--scale", "1e-3",
                           "--big", "9223372036854775807"});
    EXPECT_EQ(ok.getInt("seed", 0), -3);
    EXPECT_DOUBLE_EQ(ok.getDouble("scale", 0.0), 1e-3);
    EXPECT_DOUBLE_EQ(ok.getDouble("seed", 0.0), -3.0);
    EXPECT_EQ(ok.getInt("big", 0), 9223372036854775807LL);
}

TEST(Cli, RepeatedOptionKeepsEveryValue)
{
    const auto args = parse({"prog", "--model", "resnet", "--seed", "1",
                             "--model", "mobilenet", "--model=vit"});
    EXPECT_EQ(args.values("model"),
              (std::vector<std::string>{"resnet", "mobilenet", "vit"}));
    EXPECT_EQ(args.getString("model", ""), "vit"); // lookups: the last
    EXPECT_EQ(args.values("seed"), (std::vector<std::string>{"1"}));
    EXPECT_TRUE(args.values("absent").empty());
}

TEST(Cli, RepeatedModelFlagsAllReachTheJobSpec)
{
    const auto spec = unico::core::jobSpecFromArgs(
        parse({"prog", "--model", "resnet", "--model", "mobilenet",
               "--workload", "a.net", "vit", "b.net"}));
    EXPECT_EQ(spec.models,
              (std::vector<std::string>{"resnet", "mobilenet", "vit"}));
    EXPECT_EQ(spec.workloads,
              (std::vector<std::string>{"a.net", "b.net"}));
}

TEST(Cli, BareFlagsNeverTakeTheNextToken)
{
    // A bare flag followed by a positional leaves it positional: the
    // model after --resume is searched, not swallowed.
    const auto args =
        parse({"prog", "--checkpoint", "ck.json", "--resume", "resnet",
               "--surrogate", "vit", "--no-cache", "unet", "--no-surrogate",
               "bert", "--help", "x.net"});
    EXPECT_EQ(args.positional(),
              (std::vector<std::string>{"resnet", "vit", "unet", "bert",
                                        "x.net"}));
    for (const char *flag :
         {"resume", "surrogate", "no-cache", "no-surrogate", "help"})
        EXPECT_EQ(args.values(flag), (std::vector<std::string>{""}))
            << flag;
    const auto spec = unico::core::jobSpecFromArgs(args);
    EXPECT_TRUE(spec.resume);
    EXPECT_EQ(spec.checkpoint, "ck.json");
    EXPECT_EQ(spec.models,
              (std::vector<std::string>{"resnet", "vit", "unet", "bert"}));
    EXPECT_EQ(spec.workloads, (std::vector<std::string>{"x.net"}));
    // Options that take a value still take the next token.
    EXPECT_EQ(parse({"prog", "--verbose", "on"}).getString("verbose", ""),
              "on");
}
