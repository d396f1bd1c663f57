// Minimal JSON value model, parser, and pretty-printer, plus one binary
// tensor section for the documents that carry weights.
//
// The lineage tracker serializes record trails (architectures, fitness and
// prediction histories, engine parameters, timings) as JSON documents in the
// data commons, and the analyzer reads them back. This is a small,
// dependency-free implementation that supports the full JSON grammar with
// IEEE-754 round-trippable number formatting.
//
// Tensors (checkpoint weights, optimizer state, int8 snapshots) are JsonBlob
// leaves. encode() writes a document holding blobs as its compact text with
// each blob replaced by a `#<index>` placeholder, then a NUL, then the
// tensor section (all integers little-endian):
//
//   u32 tensor count
//   per tensor: u8 dtype (0 = f32, 1 = i8), u8 rank, rank x u64 dims,
//               u64 byte length, raw little-endian element bytes
//
// A document without blobs encodes to exactly its dump() text. decode() is
// bounded: every length is checked against the bytes that remain before
// anything is allocated, and any malformed section throws JsonError.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace a4nn::util {

class Json;

using JsonArray = std::vector<Json>;
// std::map keeps keys ordered so serialized commons files are diffable.
using JsonObject = std::map<std::string, Json>;

/// Thrown on malformed documents and type-mismatched accessors.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Element type of a binary tensor leaf.
enum class Dtype : std::uint8_t { kF32 = 0, kI8 = 1 };

/// A binary tensor leaf: shape, element type, and the elements' raw
/// little-endian bytes, so every bit (-0.0, denormals, inf, NaN payloads)
/// survives a round trip.
struct JsonBlob {
  Dtype dtype = Dtype::kF32;
  std::vector<std::size_t> shape;
  std::string bytes;

  /// Pack `values` (numel(shape) of them; JsonError otherwise).
  static JsonBlob f32(std::vector<std::size_t> shape,
                      std::span<const float> values);
  static JsonBlob i8(std::vector<std::size_t> shape,
                     std::span<const std::int8_t> values);
  /// Unpack the elements; JsonError if the dtype differs.
  std::vector<float> f32_values() const;
  std::vector<std::int8_t> i8_values() const;

  friend bool operator==(const JsonBlob&, const JsonBlob&) = default;
};

/// A JSON value: null, bool, number (double), string, array, object, or a
/// binary tensor leaf (encode()/decode() only).
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}
  Json(JsonBlob b) : value_(std::move(b)) {}

  template <typename T>
  Json(const std::vector<T>& v) {
    JsonArray a;
    a.reserve(v.size());
    for (const auto& x : v) a.emplace_back(x);
    value_ = std::move(a);
  }

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }
  bool is_blob() const { return std::holds_alternative<JsonBlob>(value_); }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();
  const JsonBlob& as_blob() const;

  /// Object access; creates the key on the mutable overload.
  Json& operator[](const std::string& key);
  /// Const object access; throws JsonError if the key is absent.
  const Json& at(const std::string& key) const;
  /// Array element access with bounds checking.
  const Json& at(std::size_t index) const;

  bool contains(const std::string& key) const;
  std::size_t size() const;

  /// Convenience typed getters with defaults for optional fields.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  void push_back(Json v);

  /// Serialize as text. indent < 0 emits compact one-line JSON; indent >= 0
  /// pretty prints with that many spaces per level. Throws JsonError on a
  /// document holding a blob: text has no lossless form for one.
  std::string dump(int indent = -1) const;

  /// Serialize for storage: dump(indent) when the document holds no blob,
  /// else its text with blob placeholders, a NUL, and the tensor section.
  std::string encode(int indent = -1) const;

  /// Deepest array/object nesting parse() accepts; one level more throws
  /// JsonError instead of recursing until the stack overflows.
  static constexpr int kMaxDepth = 256;

  /// Parse a complete document; trailing garbage is an error.
  static Json parse(const std::string& text);

  /// Inverse of encode(): text alone, or text + NUL + tensor section. Every
  /// placeholder must name a distinct tensor of the section and every
  /// tensor must be named; anything else throws JsonError.
  static Json decode(std::string_view bytes);

  /// Extract a vector of doubles from an array of numbers.
  std::vector<double> as_double_vector() const;

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject, JsonBlob>
      value_;

  /// `blobs` collects the blob leaves in placeholder order; null refuses
  /// them (text dump).
  void dump_impl(std::string& out, int indent, int depth,
                 std::vector<const JsonBlob*>* blobs) const;
};

/// u64 <-> lowercase hex text, for values that must cross JSON exactly
/// (JSON numbers are doubles; 2^53 is not enough for a mixed seed).
/// hex_to_u64 throws JsonError on anything but a whole hex u64.
std::string u64_to_hex(std::uint64_t v);
std::uint64_t hex_to_u64(const std::string& s);

}  // namespace a4nn::util
