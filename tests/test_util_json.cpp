#include "util/json.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sega {
namespace {

TEST(JsonTest, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_EQ(Json(true).as_bool(), true);
  EXPECT_DOUBLE_EQ(Json(3.5).as_number(), 3.5);
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(JsonTest, ObjectBuilding) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"]["nested"] = "x";
  EXPECT_TRUE(j.contains("a"));
  EXPECT_TRUE(j.at("b").is_object());
  EXPECT_EQ(j.at("b").at("nested").as_string(), "x");
  EXPECT_EQ(j.size(), 2u);
}

TEST(JsonTest, ArrayBuilding) {
  Json j = Json::array();
  j.push_back(1);
  j.push_back("two");
  j.push_back(Json::object());
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.at(0).as_int(), 1);
  EXPECT_EQ(j.at(1).as_string(), "two");
  EXPECT_TRUE(j.at(2).is_object());
}

TEST(JsonTest, DumpCompact) {
  Json j = Json::object();
  j["n"] = 32;
  j["name"] = "MUL-CIM";
  EXPECT_EQ(j.dump(), R"({"n":32,"name":"MUL-CIM"})");
}

TEST(JsonTest, DumpEscapesStrings) {
  Json j = Json("line\n\"quoted\"\\");
  EXPECT_EQ(j.dump(), R"("line\n\"quoted\"\\")");
}

TEST(JsonTest, DumpIntegersWithoutDecimals) {
  EXPECT_EQ(Json(64).dump(), "64");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json(65536).dump(), "65536");
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_EQ(Json::parse("true")->as_bool(), true);
  EXPECT_EQ(Json::parse("false")->as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3")->as_number(), -2500.0);
  EXPECT_EQ(Json::parse("\"s\"")->as_string(), "s");
}

TEST(JsonTest, ParseNested) {
  auto j = Json::parse(R"({"a":[1,2,{"b":null}],"c":"x"})");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->at("a").size(), 3u);
  EXPECT_TRUE(j->at("a").at(2).at("b").is_null());
  EXPECT_EQ(j->at("c").as_string(), "x");
}

TEST(JsonTest, ParseWhitespaceTolerant) {
  auto j = Json::parse("  {\n\t\"k\" :  [ 1 , 2 ]\n}  ");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->at("k").size(), 2u);
}

TEST(JsonTest, ParseRejectsMalformed) {
  std::string err;
  EXPECT_FALSE(Json::parse("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
}

TEST(JsonTest, ParseUnicodeEscape) {
  auto j = Json::parse(R"("Aé")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->as_string(), "A\xC3\xA9");
}

TEST(JsonTest, RoundTripCompact) {
  const std::string src =
      R"({"arch":"FP-CIM","objectives":[0.085,1.2,-20.2],"valid":true})";
  auto j = Json::parse(src);
  ASSERT_TRUE(j.has_value());
  auto j2 = Json::parse(j->dump());
  ASSERT_TRUE(j2.has_value());
  EXPECT_TRUE(*j == *j2);
}

TEST(JsonTest, RoundTripPretty) {
  Json j = Json::object();
  j["list"] = Json::array();
  j["list"].push_back(1.5);
  j["list"].push_back("two");
  j["obj"]["deep"] = true;
  auto parsed = Json::parse(j.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == j);
}

TEST(JsonTest, NumberPrecisionRoundTrips) {
  const double vals[] = {0.079, 1e-15, 123456789.123, 2.0 / 3.0};
  for (double v : vals) {
    auto j = Json::parse(Json(v).dump());
    ASSERT_TRUE(j.has_value());
    EXPECT_DOUBLE_EQ(j->as_number(), v);
  }
}

TEST(JsonTest, OutOfRangeNumberIsAParseErrorNotAnException) {
  // A corrupted file can carry numerals no double holds (duplicated digit
  // runs); parse() must diagnose, never throw out of the API.
  std::string error;
  EXPECT_FALSE(Json::parse("1e999999", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Json::parse(std::string(5000, '9'), &error).has_value());
  EXPECT_FALSE(Json::parse("{\"x\": 1e999999}", &error).has_value());
}

TEST(JsonTest, LineChecksumStampsAndVerifies) {
  Json line = Json::object();
  line["cell"]["wstore"] = 4096;
  line["cell"]["metric"] = 0.123456789012345;
  EXPECT_FALSE(check_line_checksum(line));  // unstamped
  stamp_line_checksum(&line);
  EXPECT_TRUE(check_line_checksum(line));

  // Stamping is stable and ignores the stamp itself.
  const std::uint32_t sum = json_line_checksum(line);
  stamp_line_checksum(&line);
  EXPECT_EQ(json_line_checksum(line), sum);
  EXPECT_TRUE(check_line_checksum(line));

  // The checksum survives a serialization round trip...
  auto parsed = Json::parse(line.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(check_line_checksum(*parsed));

  // ...and any value change invalidates it, even one that keeps the JSON
  // shape (the flipped-digit case structural validation cannot catch).
  std::string text = line.dump();
  const auto pos = text.find("0.123456789012345");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 3] = '9';
  auto tampered = Json::parse(text);
  ASSERT_TRUE(tampered.has_value());
  EXPECT_FALSE(check_line_checksum(*tampered));

  // Non-objects and wrong-typed stamps fail closed.
  EXPECT_FALSE(check_line_checksum(Json(3.0)));
  Json bad = Json::object();
  bad["c"] = "not a number";
  EXPECT_FALSE(check_line_checksum(bad));
}

// ---------------------------------------------------------------------------
// Attack-surface tests.  The parser is the first thing an always-on daemon
// runs against every untrusted request line (serve/protocol.h); hostile
// input must yield a clean per-parse error — never a throw, a crash, or
// unbounded stack growth.

TEST(JsonAttackTest, DepthLimitGuardsRecursion) {
  // Exactly at the documented limit (128 nested containers) still parses...
  const std::string at_limit =
      std::string(128, '[') + std::string(128, ']');
  EXPECT_TRUE(Json::parse(at_limit).has_value());

  // ...one past it is a clean diagnostic, not deeper recursion.
  std::string error;
  const std::string past_limit =
      std::string(129, '[') + std::string(129, ']');
  EXPECT_FALSE(Json::parse(past_limit, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);

  // A hostile megabyte of '[' must fail fast instead of overflowing the
  // stack; mixed object/array nesting counts against the same budget.
  EXPECT_FALSE(Json::parse(std::string(1 << 20, '[')).has_value());
  std::string mixed;
  for (int i = 0; i < 200; ++i) mixed += "{\"a\":[";
  EXPECT_FALSE(Json::parse(mixed).has_value());
}

TEST(JsonAttackTest, EveryTruncationOfAValidRequestIsAnError) {
  // The kill-mid-send signature: no strict prefix of a request object is
  // itself valid, and each must diagnose cleanly.
  const std::string full =
      R"({"id":1,"cmd":"run","argv":["explore","--wstore","64"]})";
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::string error;
    EXPECT_FALSE(Json::parse(full.substr(0, len), &error).has_value())
        << "prefix of length " << len << " parsed";
    EXPECT_FALSE(error.empty()) << "no diagnostic at length " << len;
  }
}

TEST(JsonAttackTest, RandomBytesNeverThrow) {
  // Arbitrary binary garbage — including non-UTF-8 bytes, NULs, and control
  // characters — must come back as a value or an error, never an exception.
  Rng rng(0xD1A0u);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string payload;
    const int n = static_cast<int>(rng.uniform_int(1, 64));
    for (int i = 0; i < n; ++i) {
      payload.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    std::string error;
    EXPECT_NO_THROW({ (void)Json::parse(payload, &error); });
  }
}

TEST(JsonAttackTest, MutatedRequestLinesParseOrFailCleanly) {
  // Seeded byte-level corruptions of a legitimate request line: every
  // mutation either parses (rare — e.g. a benign digit flip) or errors with
  // a diagnostic; a surviving parse must also survive a dump round trip.
  const std::string base =
      R"({"id":42,"cmd":"run","argv":["sweep","--wstores","64,128"]})";
  Rng rng(0x5E47Eu);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string mutated = test::random_mutation(base, rng);
    std::string error;
    std::optional<Json> parsed;
    EXPECT_NO_THROW({ parsed = Json::parse(mutated, &error); });
    if (parsed.has_value()) {
      EXPECT_TRUE(Json::parse(parsed->dump()).has_value());
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(JsonAttackTest, RawBytesInStringsRoundTripWithoutCrashing) {
  // Strings carrying non-UTF-8 byte sequences (a client bug, or hostility)
  // must not break dump(): the daemon echoes ids verbatim into responses.
  std::string hostile = "{\"id\":\"\xFF\xFE\x80 bad\",\"cmd\":\"ping\"}";
  std::optional<Json> parsed;
  EXPECT_NO_THROW({ parsed = Json::parse(hostile); });
  if (parsed.has_value()) {
    EXPECT_NO_THROW({ (void)parsed->dump(); });
  }
}

// --- number formatting is total over finite doubles ------------------------

/// The pre-strtod formatter: the byte-compatibility reference.  It threw
/// std::out_of_range (std::stod's ERANGE) where a short candidate over- or
/// underflowed; here that is reported through @p threw.
std::string reference_number_to_string(double d, bool* threw) {
  *threw = false;
  char buf[64];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", d);
    return buf;
  }
  for (int prec = 1; prec <= 16; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    errno = 0;
    const double back = std::strtod(buf, nullptr);
    if (errno == ERANGE) {
      *threw = true;
      return "";
    }
    if (back == d) return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Dump -> parse must give back the exact bit pattern; where the old
/// formatter did not throw, the dumped bytes must be the old bytes.  Returns
/// an empty string on success, else a description of the first failure.
std::string check_number(double d, bool* old_threw) {
  const std::string dumped = Json(d).dump();
  const std::string old = reference_number_to_string(d, old_threw);
  if (!*old_threw && dumped != old) {
    return strfmt("bits %016llx: dumped '%s', old bytes '%s'",
                  static_cast<unsigned long long>(bits_of(d)),
                  dumped.c_str(), old.c_str());
  }
  const auto parsed = Json::parse(dumped);
  if (!parsed || !parsed->is_number() ||
      bits_of(parsed->as_number()) != bits_of(d)) {
    return strfmt("bits %016llx: '%s' does not round-trip",
                  static_cast<unsigned long long>(bits_of(d)),
                  dumped.c_str());
  }
  return "";
}

TEST(JsonNumberTest, EdgeValuesDumpAndRoundTripBitExactly) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  int old_threw = 0;
  for (const double d :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1e15, -1e15, 1e15 + 1, 9007199254740993.0,
        1e300, 1e-300, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, 1e-310, -1e-310,
        denorm_min, -denorm_min, 4.9e-324, std::nextafter(DBL_MAX, 0.0),
        std::nextafter(DBL_MIN, 0.0), std::nextafter(DBL_MIN, 1.0),
        2.2250738585072014e-308, 1.7976931348623157e308}) {
    bool threw = false;
    EXPECT_EQ(check_number(d, &threw), "");
    old_threw += threw ? 1 : 0;
  }
  // DBL_MAX, DBL_MIN, 1e-310 and 4.9e-324 (with signs) made the old
  // formatter throw; they dump and round-trip now.
  EXPECT_GE(old_threw, 8);
}

TEST(JsonNumberTest, RandomBitPatternsMatchOldBytesAndRoundTrip) {
  // 512Ki random finite doubles over every exponent, subnormals and both
  // extremes included (uniform bit patterns), checked on four threads.
  constexpr std::size_t kValues = 512 * 1024;
  std::vector<double> values;
  values.reserve(kValues);
  Rng rng(0x5ea7);
  while (values.size() < kValues) {
    const std::uint64_t u = rng.next_u64();
    double d = 0.0;
    std::memcpy(&d, &u, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
  }
  constexpr int kThreads = 4;
  std::vector<std::string> first_failure(kThreads);
  std::vector<std::size_t> failures(kThreads, 0), threw(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < kValues;
           i += kThreads) {
        bool old_threw = false;
        const std::string failure = check_number(values[i], &old_threw);
        threw[t] += old_threw ? 1 : 0;
        if (failure.empty()) continue;
        if (failures[t]++ == 0) first_failure[t] = failure;
      }
    });
  }
  for (auto& w : workers) w.join();
  std::size_t old_threw = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0u) << first_failure[t];
    old_threw += threw[t];
  }
  std::printf("[          ] %zu of %zu values made the old formatter throw\n",
              old_threw, kValues);
}

TEST(JsonNumberTest, ParseAcceptsSubnormalsAndRejectsOverflow) {
  ASSERT_TRUE(Json::parse("4.9406564584124654e-324").has_value());
  EXPECT_EQ(Json::parse("4.9406564584124654e-324")->as_number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(Json::parse("1e-310")->as_number(), 1e-310);
  std::string error;
  EXPECT_FALSE(Json::parse("1e400", &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_FALSE(Json::parse("[-1e999]").has_value());
}

}  // namespace
}  // namespace sega
