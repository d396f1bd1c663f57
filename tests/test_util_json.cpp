#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace a4nn::util {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
}

TEST(Json, ScalarConstruction) {
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Json(2.25).as_number(), 2.25);
}

TEST(Json, VectorConstruction) {
  std::vector<double> v{1.0, 2.0, 3.0};
  Json j(v);
  ASSERT_TRUE(j.is_array());
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.as_double_vector(), v);
}

TEST(Json, ObjectAccess) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = "text";
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zzz"));
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").as_string(), "text");
  EXPECT_THROW(j.at("zzz"), JsonError);
}

TEST(Json, TypedAccessorMismatchThrows) {
  Json j(1.0);
  EXPECT_THROW(j.as_string(), JsonError);
  EXPECT_THROW(j.as_array(), JsonError);
  EXPECT_THROW(j.as_object(), JsonError);
  EXPECT_THROW(j.as_bool(), JsonError);
}

TEST(Json, DefaultedGetters) {
  Json j = Json::object();
  j["x"] = 7.0;
  EXPECT_DOUBLE_EQ(j.number_or("x", 0.0), 7.0);
  EXPECT_DOUBLE_EQ(j.number_or("y", 3.0), 3.0);
  EXPECT_EQ(j.string_or("name", "dflt"), "dflt");
  EXPECT_TRUE(j.bool_or("flag", true));
}

TEST(Json, ArrayPushBackOnNullPromotes) {
  Json j;
  j.push_back(Json(1));
  j.push_back(Json(2));
  ASSERT_TRUE(j.is_array());
  EXPECT_EQ(j.at(std::size_t{1}).as_int(), 2);
  EXPECT_THROW(j.at(std::size_t{5}), JsonError);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_TRUE(j.at("a").at(std::size_t{2}).at("b").as_bool());
  EXPECT_TRUE(j.at("c").is_null());
}

TEST(Json, ParseStringEscapes) {
  const Json j = Json::parse(R"("line\nbreak \"quoted\" tab\t uA")");
  EXPECT_EQ(j.as_string(), "line\nbreak \"quoted\" tab\t uA");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(Json, NestingAtTheDepthLimitParses) {
  const Json j = Json::parse(nested_arrays(Json::kMaxDepth));
  const Json* inner = &j;
  for (int d = 1; d < Json::kMaxDepth; ++d) inner = &inner->at(0);
  EXPECT_EQ(inner->size(), 0u);
  // Objects count toward the same limit.
  std::string objects;
  for (int d = 0; d < Json::kMaxDepth; ++d) objects += "{\"k\":";
  objects += "1" + std::string(Json::kMaxDepth, '}');
  EXPECT_NO_THROW(Json::parse(objects));
}

TEST(Json, NestingPastTheDepthLimitThrows) {
  EXPECT_THROW(Json::parse(nested_arrays(Json::kMaxDepth + 1)), JsonError);
  std::string mixed = "{\"a\":" + nested_arrays(Json::kMaxDepth) + "}";
  EXPECT_THROW(Json::parse(mixed), JsonError);
}

TEST(Json, HundredThousandDeepDocumentThrowsInsteadOfCrashing) {
  // Unbounded recursion used to overflow the stack on this input.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
  EXPECT_THROW(Json::parse(nested_arrays(100000)), JsonError);
}

TEST(Json, DumpParseRoundTrip) {
  Json j = Json::object();
  j["name"] = "model_42";
  j["acc"] = 99.125;
  j["flags"] = Json(JsonArray{Json(true), Json(false), Json(nullptr)});
  Json nested = Json::object();
  nested["k"] = -17;
  j["nested"] = nested;

  for (int indent : {-1, 0, 2}) {
    const Json back = Json::parse(j.dump(indent));
    EXPECT_EQ(back, j) << "indent=" << indent;
  }
}

TEST(Json, RoundTripPreservesDoublePrecision) {
  const double value = 0.1234567890123456789;
  const Json back = Json::parse(Json(value).dump());
  EXPECT_DOUBLE_EQ(back.as_number(), value);
}

TEST(Json, IntegersRenderWithoutExponent) {
  EXPECT_EQ(Json(1000000.0).dump(), "1000000");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(Json, NonFiniteRendersAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, StringEscapingInDump) {
  const Json j(std::string("a\"b\\c\nd"));
  EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json::parse(j.dump()).as_string(), "a\"b\\c\nd");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");
}

TEST(Json, ObjectKeysAreSorted) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["alpha"] = 2;
  const std::string dumped = j.dump();
  EXPECT_LT(dumped.find("alpha"), dumped.find("zebra"));
}

// ------------------------------------------------- binary tensor section

/// Little-endian section builder for hand-made (and hand-broken) inputs.
struct Section {
  std::string bytes;
  template <typename T>
  Section& put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bytes += static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF);
    return *this;
  }
  Section& raw(std::size_t n) {
    bytes.append(n, '\x5a');
    return *this;
  }
  /// One well-formed f32 tensor of shape {n}.
  Section& f32(std::size_t n) {
    return put<std::uint8_t>(0).put<std::uint8_t>(1).put<std::uint64_t>(n)
        .put<std::uint64_t>(4 * n).raw(4 * n);
  }
};

std::string doc(const std::string& text, const Section& section) {
  return text + std::string(1, '\0') + section.bytes;
}

void expect_rejected(const std::string& bytes, const std::string& needle) {
  try {
    Json::decode(bytes);
    FAIL() << "expected JsonError mentioning '" << needle << "'";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(JsonSection, BlobFreeDocumentsEncodeExactlyAsText) {
  Json j = Json::object();
  j["fitness"] = 97.25;
  j["history"] = std::vector<double>{1.5, -0.0, 3.0};
  j["name"] = "model";
  EXPECT_EQ(j.encode(), j.dump());
  EXPECT_EQ(j.encode(2), j.dump(2));
  EXPECT_EQ(j.encode(2).find('\0'), std::string::npos);
  EXPECT_TRUE(Json::decode(j.encode(2)) == j);
}

TEST(JsonSection, TextDumpOfABlobThrows) {
  Json j = Json::object();
  j["w"] = JsonBlob::f32({2}, std::vector<float>{1.0f, 2.0f});
  EXPECT_THROW(j.dump(), JsonError);
  EXPECT_THROW(j.dump(2), JsonError);
}

TEST(JsonSection, RoundTripIsBitExact) {
  std::vector<float> f{-0.0f,
                       std::numeric_limits<float>::denorm_min(),
                       -std::numeric_limits<float>::denorm_min() * 3.0f,
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity(),
                       1.0f / 3.0f};
  std::uint32_t nan_bits = 0x7fc12345u;  // quiet NaN with a payload
  float nan_payload;
  std::memcpy(&nan_payload, &nan_bits, sizeof nan_payload);
  f.push_back(nan_payload);
  const std::vector<std::int8_t> q{-128, -1, 0, 1, 127, 42};

  Json j = Json::object();
  j["spec"] = "conv";
  j["f"] = JsonBlob::f32({7}, f);
  j["q"] = JsonBlob::i8({2, 3}, q);
  j["empty"] = JsonBlob::f32({0}, std::vector<float>{});
  j["list"].push_back(JsonBlob::f32({1, 1}, std::vector<float>{2.5f}));
  const std::string bytes = j.encode();
  ASSERT_NE(bytes.find('\0'), std::string::npos);

  const Json back = Json::decode(bytes);
  const std::vector<float> f2 = back.at("f").as_blob().f32_values();
  ASSERT_EQ(f2.size(), f.size());
  EXPECT_EQ(std::memcmp(f2.data(), f.data(), f.size() * sizeof(float)), 0);
  EXPECT_EQ(back.at("q").as_blob().i8_values(), q);
  EXPECT_EQ(back.at("q").as_blob().shape, (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(back.at("empty").as_blob().f32_values().empty());
  EXPECT_EQ(back.at("spec").as_string(), "conv");
  EXPECT_TRUE(back == j);
  EXPECT_EQ(back.encode(), bytes);
  EXPECT_THROW(back.at("q").as_blob().f32_values(), JsonError);
  EXPECT_THROW(JsonBlob::f32({3}, f), JsonError);  // shape/value mismatch
}

TEST(JsonSection, WellFormedHandMadeSectionDecodes) {
  const Json j = Json::decode(doc("[#1,#0]", Section().put<std::uint32_t>(2)
                                                  .f32(1).f32(2)));
  EXPECT_EQ(j.at(0).as_blob().shape, std::vector<std::size_t>{2});
  EXPECT_EQ(j.at(1).as_blob().shape, std::vector<std::size_t>{1});
}

TEST(JsonSection, TruncatedSectionThrows) {
  const std::string whole =
      doc("#0", Section().put<std::uint32_t>(1).f32(3));
  const std::size_t text = 3;  // "#0" + NUL
  for (std::size_t len = text; len < whole.size(); ++len)
    EXPECT_THROW(Json::decode(whole.substr(0, len)), JsonError) << len;
  expect_rejected(whole.substr(0, text + 2), "truncated");
  expect_rejected(whole.substr(0, text + 4 + 12), "truncated");  // mid-header
}

TEST(JsonSection, LengthBeyondRemainingBytesThrows) {
  expect_rejected(doc("#0", Section().put<std::uint32_t>(1).put<std::uint8_t>(0)
                                .put<std::uint8_t>(1).put<std::uint64_t>(4)
                                .put<std::uint64_t>(16).raw(8)),
                  "claims 16 bytes, 8 remain");
}

TEST(JsonSection, HugeClaimsAreRejectedBeforeAllocating) {
  // 2^40 bytes (2^38 floats): refused by the remaining-bytes bound, never
  // allocated.
  expect_rejected(doc("#0", Section().put<std::uint32_t>(1).put<std::uint8_t>(0)
                                .put<std::uint8_t>(1)
                                .put<std::uint64_t>(1ull << 38)
                                .put<std::uint64_t>(1ull << 40).raw(16)),
                  "claims 1099511627776 bytes");
  // A tensor count the section cannot hold.
  expect_rejected(doc("#0", Section().put<std::uint32_t>(0xFFFFFFFFu).f32(1)),
                  "claims 4294967295 tensors");
  // Dimensions whose product overflows 64 bits.
  expect_rejected(doc("#0", Section().put<std::uint32_t>(1).put<std::uint8_t>(1)
                                .put<std::uint8_t>(2)
                                .put<std::uint64_t>(1ull << 33)
                                .put<std::uint64_t>(1ull << 33)
                                .put<std::uint64_t>(0)),
                  "shape does not match");
}

TEST(JsonSection, UnknownDtypeThrows) {
  expect_rejected(doc("#0", Section().put<std::uint32_t>(1).put<std::uint8_t>(7)
                                .put<std::uint8_t>(1).put<std::uint64_t>(1)
                                .put<std::uint64_t>(4).raw(4)),
                  "unknown dtype 7");
}

TEST(JsonSection, ShapeByteLengthMismatchThrows) {
  // Three f32 elements are 12 bytes, not 8.
  expect_rejected(doc("#0", Section().put<std::uint32_t>(1).put<std::uint8_t>(0)
                                .put<std::uint8_t>(1).put<std::uint64_t>(3)
                                .put<std::uint64_t>(8).raw(8)),
                  "shape does not match");
  // Three i8 elements are 3 bytes, not 12.
  expect_rejected(doc("#0", Section().put<std::uint32_t>(1).put<std::uint8_t>(1)
                                .put<std::uint8_t>(1).put<std::uint64_t>(3)
                                .put<std::uint64_t>(12).raw(12)),
                  "shape does not match");
}

TEST(JsonSection, BadPlaceholdersThrow) {
  const Section one = Section().put<std::uint32_t>(1).f32(2);
  expect_rejected(doc("#1", one), "out of range");
  expect_rejected(doc("[#0,#0]", Section().put<std::uint32_t>(2).f32(1).f32(1)),
                  "used twice");
  expect_rejected(doc("[#0]", Section().put<std::uint32_t>(2).f32(1).f32(1)),
                  "never referenced");
  expect_rejected(doc("#", one), "invalid tensor placeholder");
  // Text without a section holds no tensors at all.
  expect_rejected("{\"w\":#0}", "out of range");
  EXPECT_THROW(Json::parse("{\"w\":#0}"), JsonError);
}

TEST(JsonSection, EveryByteMutationDecodesOrThrowsJsonError) {
  // Deterministic mutation sweep: flip each byte of an encoded document
  // three ways, and cut it at every length. The decoder must return or
  // throw JsonError; it must never read out of bounds or throw anything
  // else (run under the sanitizers in CI).
  Json j = Json::object();
  j["spec"] = Json::array();
  j["spec"].push_back("conv");
  j["w"] = JsonBlob::f32({2, 2}, std::vector<float>{1.0f, -2.0f, 0.5f, 8.0f});
  j["q"] = JsonBlob::i8({3}, std::vector<std::int8_t>{-1, 0, 1});
  const std::string bytes = j.encode();
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string m = bytes;
      m[i] = static_cast<char>(m[i] ^ mask);
      try {
        Json::decode(m);
        ++decoded;
      } catch (const JsonError&) {
      }
    }
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      Json::decode(bytes.substr(0, len));
      ++decoded;
    } catch (const JsonError&) {
    }
  }
  // Flips inside tensor data still decode (the frame CRC, not the
  // section, catches those); structural flips throw.
  EXPECT_GT(decoded, 0u);
}

TEST(JsonSection, TrailingBytesThrow) {
  expect_rejected(doc("#0", Section().put<std::uint32_t>(1).f32(2).raw(1)),
                  "1 trailing byte(s)");
}

}  // namespace
}  // namespace a4nn::util
