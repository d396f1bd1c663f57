// Integrity frame for data-commons artifacts: a one-line header carrying a
// magic, format version, payload length, and CRC-32, followed by the raw
// payload bytes. A torn write, mid-payload truncation, or single-bit flip
// makes the header checks fail, so readers can quarantine the file instead
// of silently accepting corrupted state.
//
// On-disk layout (version 1):
//   A4NNF1 <payload length, decimal> <crc32 of payload, 8 hex digits>\n
//   <payload bytes>
//
// The payload is opaque bytes. Commons artifacts carry util::Json::encode
// output: JSON text, plus, for weight-bearing documents, a NUL and a binary
// tensor section (util/json.hpp).
//
// Readers are versioned: content that does not start with the magic is a
// legacy unframed artifact (pre-framing commons trees) and is accepted
// verbatim; it gets re-framed automatically the first time it is rewritten,
// because writers always frame. An unknown frame version is an error, not
// legacy — it means the tree was written by a newer build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace a4nn::util {

/// Thrown when framed content fails its header, length, or CRC check.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::string_view kFrameMagic = "A4NNF";
inline constexpr int kFrameVersion = 1;

/// Wrap `payload` in a version-1 integrity frame.
std::string frame(std::string_view payload);

/// Whether `content` starts with the frame magic (any version).
bool is_framed(std::string_view content);

/// Strict unframe: `content` must carry a valid current-version frame whose
/// length and CRC match exactly; throws FrameError otherwise.
std::string unframe(std::string_view content);

struct UnframeResult {
  std::string payload;
  bool was_framed = false;
};

/// Versioned read: framed content is verified (FrameError on corruption)
/// and unwrapped; unframed content is treated as a legacy artifact and
/// returned verbatim.
UnframeResult unframe_or_legacy(std::string_view content);

// --- Wire framing (cluster TCP protocol) -----------------------------------
//
// A wire frame is `[u32 length, little-endian][u8 type][payload]` where the
// payload is itself an A4NNF1 integrity frame (header + CRC-32) wrapping the
// message text. The length covers the payload only, not the type byte. The
// inner frame makes every message self-validating, so a receiver can detect
// torn writes, bit flips, and truncation without trusting the outer length
// field — and can *resynchronize* after corruption by scanning for the next
// payload that starts with the A4NNF magic and passes its CRC.

/// One decoded wire frame: the type byte plus the verified (unframed)
/// message text.
struct WireFrame {
  std::uint8_t type = 0;
  std::string payload;
};

/// Frames a message for the wire: `[u32 len][u8 type][A4NNF1(payload)]`.
std::string encode_wire_frame(std::uint8_t type, std::string_view payload);

/// Incremental wire-frame decoder. Feed it bytes in whatever chunks the
/// socket delivers; next() yields complete, CRC-verified frames as they
/// become available. A frame that fails validation (bad length field,
/// payload CRC mismatch, truncated inner frame) is counted and the decoder
/// enters resync mode: it scans forward for the next byte position that
/// parses as a complete valid frame, discarding garbage in between. The
/// stream therefore survives torn frames and mid-stream corruption at the
/// cost of the corrupted message(s) only.
class StreamDecoder {
 public:
  /// `max_frame_bytes` bounds the payload length a header may claim; a
  /// larger claim is treated as corruption (protects against a flipped
  /// length bit demanding gigabytes of buffer).
  explicit StreamDecoder(std::size_t max_frame_bytes = 64u << 20);

  /// Append raw bytes from the transport.
  void feed(const char* data, std::size_t n);
  void feed(std::string_view data) { feed(data.data(), data.size()); }

  /// Decode the next complete frame into `out`. Returns false when the
  /// buffered bytes do not (yet) contain one; feed more and retry.
  bool next(WireFrame& out);

  /// Drop all buffered bytes and resync state (fresh connection).
  void reset();

  /// Lifetime accounting (never reset by reset()).
  std::size_t frames_decoded() const { return frames_decoded_; }
  std::size_t corrupt_frames() const { return corrupt_frames_; }
  std::size_t resyncs() const { return resyncs_; }
  std::size_t bytes_discarded() const { return bytes_discarded_; }

 private:
  /// Try to parse a complete frame at `offset` into `out`.
  enum class Parse { kOk, kNeedMore, kBad };
  Parse try_parse(std::size_t offset, WireFrame& out) const;
  void drop_front(std::size_t n);

  std::size_t max_frame_bytes_;
  std::string buffer_;
  bool resyncing_ = false;
  std::size_t frames_decoded_ = 0;
  std::size_t corrupt_frames_ = 0;
  std::size_t resyncs_ = 0;
  std::size_t bytes_discarded_ = 0;
};

}  // namespace a4nn::util
