#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "harness.hpp"
#include "util/error.hpp"

namespace pblpar::bench {
namespace {

TEST(BenchJsonTest, EscapesStrings) {
  const Json json = Json::object({{"s", "quote\" back\\ nl\n tab\t \x01"}});
  EXPECT_EQ(json.dump(),
            R"({"s":"quote\" back\\ nl\u000a tab\u0009 \u0001"})");
}

TEST(BenchJsonTest, NonFiniteNumbersWriteAsNull) {
  Json json = Json::array();
  json.push(std::numeric_limits<double>::quiet_NaN())
      .push(std::numeric_limits<double>::infinity())
      .push(-std::numeric_limits<double>::infinity())
      .push(0.25)
      .push(-3);
  EXPECT_EQ(json.dump(), "[null,null,null,0.25,-3]");
}

TEST(BenchJsonTest, NestsInInsertionOrder) {
  Json doc = Json::object({{"z", 1}, {"a", true}});
  Json rows = Json::array();
  rows.push(Json::object({{"k", "v"}, {"n", std::uint64_t{7}}}));
  rows.push(Json::array());
  doc.set("rows", std::move(rows)).set("empty", Json::object()).set("nil",
                                                                    Json());
  EXPECT_EQ(doc.dump(),
            "{\n"
            "  \"z\": 1,\n"
            "  \"a\": true,\n"
            "  \"rows\": [\n"
            "    {\"k\":\"v\",\"n\":7},\n"
            "    []\n"
            "  ],\n"
            "  \"empty\": {},\n"
            "  \"nil\": null\n"
            "}");
}

TEST(BenchJsonTest, DoublesRoundTrip) {
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(1200.0).dump(), "1200");
  EXPECT_EQ(Json(1.5e-7).dump(), "1.5e-07");
}

TEST(BenchSamplesTest, SummarizesTrials) {
  int calls = 0;
  const Samples samples = trials(4, [&] { return 1.0 + calls++; });
  EXPECT_EQ(calls, 4);
  EXPECT_DOUBLE_EQ(samples.min(), 1.0);
  EXPECT_DOUBLE_EQ(samples.median(), 2.5);
  EXPECT_DOUBLE_EQ(samples.q1(), 1.75);
  EXPECT_DOUBLE_EQ(samples.q3(), 3.25);
  EXPECT_DOUBLE_EQ(samples.iqr(), 1.5);

  const Samples timed = trials(3, [] {});
  ASSERT_EQ(timed.seconds.size(), 3u);
  EXPECT_GE(timed.min(), 0.0);
  EXPECT_THROW(trials(0, [] {}), util::PreconditionError);
}

TEST(BenchChecksTest, CollectsVerdictsInOrder) {
  Checks checks;
  EXPECT_TRUE(checks.add("first", true));
  EXPECT_TRUE(checks.all());
  EXPECT_FALSE(checks.add("second", false));
  EXPECT_FALSE(checks.all());
  EXPECT_EQ(checks.json().dump(), R"({"first":true,"second":false})");
}

TEST(BenchDocumentTest, CarriesTheHostBlock) {
  const std::string text = document("ubench_x", true).dump();
  EXPECT_EQ(text.rfind("{\n  \"bench\": \"ubench_x\",\n  \"smoke\": true,\n"
                       "  \"host\": {\"hardware_threads\":",
                       0),
            0u);
  for (const char* key : {"\"compiler\":", "\"build_type\":",
                          "\"sanitizer\":", "\"git_sha\":"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace pblpar::bench
