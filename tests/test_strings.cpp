#include "common/strings.hpp"

#include <gtest/gtest.h>

#include "common/require.hpp"

namespace adse {
namespace {

TEST(Split, Basic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiter) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2e3 "), -2000.0);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_THROW(parse_double("abc"), InvariantError);
  EXPECT_THROW(parse_double("1.5x"), InvariantError);
  EXPECT_THROW(parse_double(""), InvariantError);
}

TEST(ParseInt, Valid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
}

TEST(ParseInt, Invalid) {
  EXPECT_THROW(parse_int("4.2"), InvariantError);
  EXPECT_THROW(parse_int("x"), InvariantError);
}

TEST(ParseU64, FullRangeAndInvalid) {
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_EQ(parse_u64(" 7 "), 7u);
  EXPECT_THROW(parse_u64("-1"), InvariantError);
  EXPECT_THROW(parse_u64("abc"), InvariantError);
  EXPECT_THROW(parse_u64("18446744073709551616"), InvariantError);
}

TEST(Format, Fixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(Format, Grouped) {
  EXPECT_EQ(format_grouped(0), "0");
  EXPECT_EQ(format_grouped(999), "999");
  EXPECT_EQ(format_grouped(1000), "1,000");
  EXPECT_EQ(format_grouped(25078088), "25,078,088");
  EXPECT_EQ(format_grouped(-1234567), "-1,234,567");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("campaign_main", "campaign"));
  EXPECT_FALSE(starts_with("cam", "campaign"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(ToLower, Basic) { EXPECT_EQ(to_lower("MiniBude"), "minibude"); }

}  // namespace
}  // namespace adse
