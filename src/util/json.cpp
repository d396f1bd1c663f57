#include "util/json.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace a4nn::util {

// Blob bytes are the host's element bytes, which the section format
// defines as little-endian.
static_assert(std::endian::native == std::endian::little,
              "the tensor section stores host bytes as little-endian");

namespace {

std::size_t dtype_size(Dtype dtype) {
  return dtype == Dtype::kF32 ? sizeof(float) : sizeof(std::int8_t);
}

std::size_t shape_numel(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

template <typename T>
JsonBlob pack(Dtype dtype, std::vector<std::size_t> shape,
              std::span<const T> values) {
  if (shape_numel(shape) != values.size())
    throw JsonError("JsonBlob: shape holds " +
                    std::to_string(shape_numel(shape)) + " elements, got " +
                    std::to_string(values.size()));
  JsonBlob b;
  b.dtype = dtype;
  b.shape = std::move(shape);
  b.bytes.assign(reinterpret_cast<const char*>(values.data()),
                 values.size_bytes());
  return b;
}

template <typename T>
std::vector<T> unpack(const JsonBlob& b, Dtype want) {
  if (b.dtype != want) throw JsonError("JsonBlob: unexpected dtype");
  std::vector<T> out(b.bytes.size() / sizeof(T));
  if (!out.empty())  // memcpy from/to a null pointer is undefined
    std::memcpy(out.data(), b.bytes.data(), out.size() * sizeof(T));
  return out;
}

}  // namespace

JsonBlob JsonBlob::f32(std::vector<std::size_t> shape,
                       std::span<const float> values) {
  return pack(Dtype::kF32, std::move(shape), values);
}

JsonBlob JsonBlob::i8(std::vector<std::size_t> shape,
                      std::span<const std::int8_t> values) {
  return pack(Dtype::kI8, std::move(shape), values);
}

std::vector<float> JsonBlob::f32_values() const {
  return unpack<float>(*this, Dtype::kF32);
}

std::vector<std::int8_t> JsonBlob::i8_values() const {
  return unpack<std::int8_t>(*this, Dtype::kI8);
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw JsonError("Json: not a bool");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  throw JsonError("Json: not a number");
}

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  throw JsonError("Json: not a string");
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw JsonError("Json: not an array");
}

JsonArray& Json::as_array() {
  if (JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw JsonError("Json: not an array");
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw JsonError("Json: not an object");
}

JsonObject& Json::as_object() {
  if (JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw JsonError("Json: not an object");
}

const JsonBlob& Json::as_blob() const {
  if (const JsonBlob* b = std::get_if<JsonBlob>(&value_)) return *b;
  throw JsonError("Json: not a binary tensor");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("Json: missing key '" + key + "'");
  return it->second;
}

const Json& Json::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) throw JsonError("Json: array index out of range");
  return arr[index];
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw JsonError("Json: size() on non-container");
}

double Json::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(const std::string& key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : std::move(fallback);
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

void Json::push_back(Json v) {
  if (is_null()) value_ = JsonArray{};
  as_array().push_back(std::move(v));
}

std::vector<double> Json::as_double_vector() const {
  const auto& arr = as_array();
  std::vector<double> out;
  out.reserve(arr.size());
  for (const auto& v : arr) out.push_back(v.as_number());
  return out;
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void format_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; record trails should never contain them, but we
    // degrade to null rather than emit an unparseable document.
    out += "null";
    return;
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    out += buf;
    return;
  }
  // Shortest representation that round-trips.
  std::array<char, 32> buf{};
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  if (ec == std::errc()) {
    out.append(buf.data(), ptr);
  } else {
    char fallback[32];
    std::snprintf(fallback, sizeof(fallback), "%.17g", d);
    out += fallback;
  }
}

}  // namespace

void Json::dump_impl(std::string& out, int indent, int depth,
                     std::vector<const JsonBlob*>* blobs) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ') : "";
  const std::string close_pad = pretty ? std::string(static_cast<std::size_t>(indent) * depth, ' ') : "";
  const char* nl = pretty ? "\n" : "";
  const char* colon = pretty ? ": " : ":";

  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    format_number(out, as_number());
  } else if (is_string()) {
    escape_string(out, as_string());
  } else if (is_blob()) {
    if (!blobs)
      throw JsonError("Json: dump() of a binary tensor; use encode()");
    out += '#';
    out += std::to_string(blobs->size());
    blobs->push_back(&as_blob());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_impl(out, indent, depth + 1, blobs);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [k, v] : obj) {
      out += pad;
      escape_string(out, k);
      out += colon;
      v.dump_impl(out, indent, depth + 1, blobs);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0, nullptr);
  return out;
}

namespace {

template <typename T>
void put_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// Smallest encoded tensor: dtype, rank 0, byte length.
constexpr std::size_t kMinTensorBytes = 1 + 1 + 8;
/// Deepest shape a tensor may claim.
constexpr std::size_t kMaxRank = 8;

/// Bounds-checked little-endian reader over a tensor section.
class SectionReader {
 public:
  explicit SectionReader(std::string_view in) : in_(in) {}

  std::size_t remaining() const { return in_.size() - pos_; }

  template <typename T>
  T take() {
    if (remaining() < sizeof(T))
      fail("truncated at byte " + std::to_string(pos_));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<unsigned char>(in_[pos_ + i]))
           << (8 * i);
    pos_ += sizeof(T);
    return v;
  }

  std::string_view take_bytes(std::size_t n) {
    const std::string_view out = in_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  [[noreturn]] static void fail(const std::string& msg) {
    throw JsonError("tensor section: " + msg);
  }

 private:
  std::string_view in_;
  std::size_t pos_ = 0;
};

std::vector<JsonBlob> decode_section(std::string_view section) {
  SectionReader r(section);
  const std::uint32_t count = r.take<std::uint32_t>();
  if (count > r.remaining() / kMinTensorBytes)
    r.fail("claims " + std::to_string(count) + " tensors in " +
           std::to_string(r.remaining()) + " bytes");
  std::vector<JsonBlob> blobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    JsonBlob& b = blobs[i];
    const std::uint8_t dtype = r.take<std::uint8_t>();
    if (dtype > static_cast<std::uint8_t>(Dtype::kI8))
      r.fail("tensor " + std::to_string(i) + " has unknown dtype " +
             std::to_string(dtype));
    b.dtype = static_cast<Dtype>(dtype);
    const std::uint8_t rank = r.take<std::uint8_t>();
    if (rank > kMaxRank)
      r.fail("tensor " + std::to_string(i) + " has rank " +
             std::to_string(rank));
    std::uint64_t numel = 1;
    bool overflow = false;
    for (std::size_t d = 0; d < rank; ++d) {
      const std::uint64_t dim = r.take<std::uint64_t>();
      overflow |= __builtin_mul_overflow(numel, dim, &numel);
      b.shape.push_back(static_cast<std::size_t>(dim));
    }
    const std::uint64_t length = r.take<std::uint64_t>();
    if (length > r.remaining())
      r.fail("tensor " + std::to_string(i) + " claims " +
             std::to_string(length) + " bytes, " +
             std::to_string(r.remaining()) + " remain");
    std::uint64_t expected = 0;
    overflow |= __builtin_mul_overflow(numel, dtype_size(b.dtype), &expected);
    if (overflow || expected != length)
      r.fail("tensor " + std::to_string(i) + " shape does not match its " +
             std::to_string(length) + " bytes");
    b.bytes = r.take_bytes(static_cast<std::size_t>(length));
  }
  if (r.remaining() != 0)
    r.fail(std::to_string(r.remaining()) + " trailing byte(s)");
  return blobs;
}

class Parser {
 public:
  Parser(std::string_view text, std::vector<JsonBlob> blobs)
      : text_(text), blobs_(std::move(blobs)), used_(blobs_.size(), false) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    for (std::size_t i = 0; i < used_.size(); ++i)
      if (!used_[i])
        SectionReader::fail("tensor " + std::to_string(i) +
                            " is never referenced");
    return v;
  }

 private:
  std::string_view text_;
  std::vector<JsonBlob> blobs_;
  std::vector<bool> used_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* lit) {
    std::size_t n = std::strlen(lit);
    if (text_.substr(pos_, n) == std::string_view(lit, n)) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return nested(&Parser::parse_object);
      case '[': return nested(&Parser::parse_array);
      case '"': return Json(parse_string());
      case '#': return parse_placeholder();
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  /// `#<index>`: the index-th tensor of the section, each used once.
  Json parse_placeholder() {
    ++pos_;
    std::size_t index = 0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), index);
    if (ec != std::errc{}) fail("invalid tensor placeholder");
    pos_ = static_cast<std::size_t>(ptr - text_.data());
    if (index >= blobs_.size())
      fail("tensor placeholder #" + std::to_string(index) +
           " out of range (section holds " + std::to_string(blobs_.size()) +
           ")");
    if (used_[index])
      fail("tensor placeholder #" + std::to_string(index) + " used twice");
    used_[index] = true;
    return Json(std::move(blobs_[index]));
  }

  Json nested(Json (Parser::*parse_container)()) {
    if (++depth_ > Json::kMaxDepth)
      fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
    Json v = (this->*parse_container)();
    --depth_;
    return v;
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = take();
      if (c == '"') break;
      if (c == '\\') {
        char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only; surrogate
            // pairs never appear in our record trails).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("invalid escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double d = 0.0;
    auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || ptr != text_.data() + pos_) fail("invalid number");
    return Json(d);
  }
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text, {}).parse_document();
}

std::string Json::encode(int indent) const {
  std::vector<const JsonBlob*> blobs;
  std::string out;
  dump_impl(out, indent, 0, &blobs);
  if (blobs.empty()) return out;
  out += '\0';
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(blobs.size()));
  for (const JsonBlob* b : blobs) {
    if (b->shape.size() > kMaxRank ||
        b->bytes.size() != shape_numel(b->shape) * dtype_size(b->dtype))
      throw JsonError("Json: malformed binary tensor");
    put_le<std::uint8_t>(out, static_cast<std::uint8_t>(b->dtype));
    put_le<std::uint8_t>(out, static_cast<std::uint8_t>(b->shape.size()));
    for (std::size_t d : b->shape) put_le<std::uint64_t>(out, d);
    put_le<std::uint64_t>(out, b->bytes.size());
    out += b->bytes;
  }
  return out;
}

Json Json::decode(std::string_view bytes) {
  const std::size_t nul = bytes.find('\0');
  if (nul == std::string_view::npos) return Parser(bytes, {}).parse_document();
  return Parser(bytes.substr(0, nul), decode_section(bytes.substr(nul + 1)))
      .parse_document();
}

std::string u64_to_hex(std::uint64_t v) {
  char buf[17];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  if (ec != std::errc{}) throw JsonError("u64_to_hex: conversion failed");
  return std::string(buf, ptr);
}

std::uint64_t hex_to_u64(const std::string& s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw JsonError("hex_to_u64: malformed value '" + s + "'");
  return v;
}

}  // namespace a4nn::util
