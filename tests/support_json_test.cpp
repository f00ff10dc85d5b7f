// Tests for the self-contained JSON reader/writer: parse/dump round-trips,
// exact number rendering, strict error reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "test_paths.hpp"
#include "support/json.hpp"

namespace aurv::support {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_EQ(Json::parse("2.5e3").as_number(), 2500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse("  42  ").as_number(), 42.0);
}

TEST(Json, ParsesContainers) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(doc.is_object());
  const Json::Array& a = doc.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].as_number(), 1.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_EQ(doc.at("c").as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), JsonError);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Json doc = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const Json::Object& object = doc.as_object();
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object[0].first, "z");
  EXPECT_EQ(object[1].first, "a");
  EXPECT_EQ(object[2].first, "m");
  EXPECT_EQ(doc.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, StringEscapes) {
  const Json doc = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\nd\teA");
  // Dump escapes what must be escaped and round-trips.
  const std::string out = doc.dump();
  EXPECT_EQ(Json::parse(out).as_string(), doc.as_string());
}

TEST(Json, NumberRendering) {
  EXPECT_EQ(Json(5.0).dump(), "5");
  EXPECT_EQ(Json(-3.0).dump(), "-3");
  EXPECT_EQ(Json(std::uint64_t{4000000}).dump(), "4000000");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(-0.0).dump(), "-0");  // sign bit survives the round trip
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
  // Round-trip-exact for arbitrary doubles.
  const double value = 0.1 + 0.2;
  EXPECT_EQ(Json::parse(Json(value).dump()).as_number(), value);
  const double tiny = 1e-9;
  EXPECT_EQ(Json::parse(Json(tiny).dump()).as_number(), tiny);
}

TEST(Json, RoundTripNested) {
  const std::string text =
      R"({"name":"x","values":[1,2.5,true,null,"s"],"nested":{"deep":[[]]}})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.dump(), text);
  // Pretty-printed output parses back to an equal document.
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), JsonError);
  EXPECT_THROW((void)Json::parse("{"), JsonError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW((void)Json::parse("{'a':1}"), JsonError);
  EXPECT_THROW((void)Json::parse("nul"), JsonError);
  EXPECT_THROW((void)Json::parse("1 2"), JsonError);
  EXPECT_THROW((void)Json::parse("01x"), JsonError);
  EXPECT_THROW((void)Json::parse("012"), JsonError);
  EXPECT_THROW((void)Json::parse("-00.5"), JsonError);
  EXPECT_THROW((void)Json::parse(R"({"k":1,"k":2})"), JsonError);
  EXPECT_THROW((void)Json::parse("-"), JsonError);
  EXPECT_THROW((void)Json::parse("1."), JsonError);
  EXPECT_THROW((void)Json::parse("1e"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)Json::parse("\"bad\\escape\""), JsonError);
  EXPECT_THROW((void)Json::parse("NaN"), JsonError);
}

TEST(Json, ErrorsNameTheProblem) {
  try {
    (void)Json::parse("{\"a\": }");
    FAIL() << "expected JsonError";
  } catch (const JsonError& error) {
    EXPECT_NE(std::string(error.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, TypedAccessorsAreStrict) {
  const Json number(1.5);
  EXPECT_THROW((void)number.as_string(), JsonError);
  EXPECT_THROW((void)number.as_object(), JsonError);
  EXPECT_THROW((void)number.as_uint(), JsonError);  // not integral
  EXPECT_THROW((void)Json(-1.0).as_uint(), JsonError);
  EXPECT_EQ(Json(-1.0).as_int(), -1);
}

TEST(Json, SetRejectsDuplicateKeys) {
  Json object = Json::object();
  object.set("k", Json(1.0));
  EXPECT_THROW(object.set("k", Json(2.0)), JsonError);
}

TEST(Json, DefaultedLookups) {
  const Json doc = Json::parse(R"({"present": 3})");
  EXPECT_EQ(doc.number_or("present", 7.0), 3.0);
  EXPECT_EQ(doc.number_or("absent", 7.0), 7.0);
  EXPECT_EQ(doc.uint_or("absent", 9u), 9u);
  EXPECT_EQ(doc.string_or("absent", "d"), "d");
  EXPECT_EQ(doc.bool_or("absent", true), true);
}

TEST(Json, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string deep(100000, '[');
  EXPECT_THROW((void)Json::parse(deep), JsonError);
  EXPECT_THROW((void)Json::parse("1e999"), JsonError);  // out of double range
}

TEST(Json, NonFiniteNumbersRefuseToSerialize) {
  EXPECT_THROW((void)Json(std::nan("")).dump(), JsonError);
  EXPECT_THROW((void)Json(INFINITY).dump(), JsonError);
}

// The committed micro-kernel ledger is written by bench/bench_json.hpp
// through Json::dump(2); a file already in that form makes a refresh of
// one row a one-line diff.
TEST(Json, CommittedBenchLedgerIsAFixedPointOfTheWriter) {
  const std::string path = std::string(AURV_SOURCE_DIR) + "/BENCH_micro.json";
  EXPECT_EQ(Json::load_file(path).dump(2), testpaths::slurp(path));
}

}  // namespace
}  // namespace aurv::support
