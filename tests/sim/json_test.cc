/**
 * @file
 * Unit tests for the minimal JSON parser and emit helpers.
 */

#include <gtest/gtest.h>

#include "sim/json.hh"

namespace
{

using namespace dolos::json;

TEST(JsonParse, ScalarsAndStructure)
{
    const auto doc = parse(
        R"({"a": 1.5, "b": [true, false, null, "x"], "c": {"d": -2e3}})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->find("a")->number(), 1.5);
    const auto &b = doc->find("b")->array();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_TRUE(b[0].boolean());
    EXPECT_FALSE(b[1].boolean());
    EXPECT_TRUE(b[2].isNull());
    EXPECT_EQ(b[3].string(), "x");
    EXPECT_DOUBLE_EQ(doc->find("c")->find("d")->number(), -2000.0);
}

TEST(JsonParse, MembersKeepInsertionOrder)
{
    const auto doc = parse(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_TRUE(doc.has_value());
    const auto &m = doc->members();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0].first, "z");
    EXPECT_EQ(m[1].first, "a");
    EXPECT_EQ(m[2].first, "m");
}

TEST(JsonParse, StringEscapes)
{
    const auto doc = parse(R"(["a\"b\\c\n\t", "Aé"])");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->array()[0].string(), "a\"b\\c\n\t");
    EXPECT_EQ(doc->array()[1].string(), "A\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(parse("{", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parse("[1,]").has_value());
    EXPECT_FALSE(parse("[1] trailing").has_value());
    EXPECT_FALSE(parse("'single'").has_value());
    EXPECT_FALSE(parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(parse("").has_value());
    EXPECT_FALSE(parse("nul").has_value());
}

TEST(JsonEscape, ControlAndQuoteCharacters)
{
    EXPECT_EQ(escape("plain"), "plain");
    EXPECT_EQ(escape("a\"b"), "a\\\"b");
    EXPECT_EQ(escape("a\\b"), "a\\\\b");
    EXPECT_EQ(escape("a\nb"), "a\\nb");
    EXPECT_EQ(escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonEscape, RoundTripsThroughParse)
{
    const std::string nasty = "q\"b\\s\n\t\r\x02 end";
    std::string quoted = "\"";
    quoted += escape(nasty);
    quoted += '"';
    const auto doc = parse(quoted);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->string(), nasty);
}

TEST(JsonNumericLeaves, FlattensWithPaths)
{
    const auto doc =
        parse(R"({"a": 1, "b": {"c": [2, {"d": 3}]}, "s": "x"})");
    ASSERT_TRUE(doc.has_value());
    const auto leaves = numericLeaves(*doc);
    ASSERT_EQ(leaves.size(), 3u);
    EXPECT_EQ(leaves[0].first, "a");
    EXPECT_DOUBLE_EQ(leaves[0].second, 1.0);
    EXPECT_EQ(leaves[1].first, "b.c[0]");
    EXPECT_DOUBLE_EQ(leaves[1].second, 2.0);
    EXPECT_EQ(leaves[2].first, "b.c[1].d");
    EXPECT_DOUBLE_EQ(leaves[2].second, 3.0);
}

} // namespace
