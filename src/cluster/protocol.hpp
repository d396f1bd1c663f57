// Wire protocol for the master/worker NAS cluster.
//
// Every message is one wire frame: `[u32 len][u8 type][payload]` where the
// payload is an A4NNF1 integrity frame (util/frame) wrapping the message
// body as JSON text. The inner CRC makes torn writes, bit flips, and
// truncation detectable per message; util::StreamDecoder resynchronizes
// the byte stream after corruption. The type byte selects the body schema:
//
//   worker -> master:  Hello (identity + capacity report), JobResult,
//                      HeartbeatAck
//   master -> worker:  Welcome / Reject (handshake verdict), JobRequest,
//                      Heartbeat, Shutdown
//
// A JobRequest carries everything a worker needs to reproduce a training
// job bit-exactly: genome, model id, generation, and the per-model seed
// (as hex text — a u64 does not survive a JSON double). The run
// configuration itself is NOT shipped: master and workers are launched
// with the same flags, and the handshake compares a CRC-32 digest of the
// configuration JSON so a mismatched worker is rejected instead of
// silently computing different results.
#pragma once

#include <cstdint>
#include <string>

#include "util/frame.hpp"
#include "util/json.hpp"

namespace a4nn::cluster {

inline constexpr int kProtocolVersion = 1;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kReject = 3,
  kJobRequest = 4,
  kJobResult = 5,
  kHeartbeat = 6,
  kHeartbeatAck = 7,
  kShutdown = 8,
};

/// Whether a received type byte names a known message (torn headers can
/// produce arbitrary type bytes even when the payload CRC happens to pass).
bool known_type(std::uint8_t type);
const char* type_name(MsgType type);

/// Worker -> master handshake: identity + capacity report.
struct Hello {
  int protocol = kProtocolVersion;
  std::string worker;        // stable identity across reconnects
  std::uint64_t ram_bytes = 0;
  std::size_t threads = 1;   // concurrent jobs this worker can run
  std::uint32_t config_crc = 0;  // digest of the run-configuration JSON

  util::Json to_json() const;
  static Hello from_json(const util::Json& j);
};

struct Welcome {
  std::size_t worker_index = 0;

  util::Json to_json() const;
  static Welcome from_json(const util::Json& j);
};

struct Reject {
  std::string reason;

  util::Json to_json() const;
  static Reject from_json(const util::Json& j);
};

struct JobRequest {
  std::uint64_t job = 0;  // master-assigned dispatch id, echoed in the result
  int model_id = -1;
  int generation = -1;
  std::string seed_hex;   // per-model training seed, u64 as lowercase hex
  util::Json genome;      // nas::Genome::to_json()
  /// Objective mode of the search dispatching this job
  /// (nas::objective_mode_name). Serialized only when not "flops", so
  /// default-mode requests keep their historical wire bytes. Informational
  /// for workers — latency is always probed on the master's own hardware —
  /// but lets a worker log/refuse a mode mismatch beyond the config CRC.
  std::string objective = "flops";

  util::Json to_json() const;
  static JobRequest from_json(const util::Json& j);
};

struct JobResult {
  std::uint64_t job = 0;
  util::Json record;      // nas::EvaluationRecord::to_json()

  util::Json to_json() const;
  static JobResult from_json(const util::Json& j);
};

/// Encode a message body as one wire frame ready for send().
std::string encode(MsgType type, const util::Json& body);
/// Bodyless messages (heartbeats, shutdown).
std::string encode(MsgType type);

/// Parse a decoded wire frame's payload text as the message body. Throws
/// util::JsonError on malformed text (a CRC-valid frame always parses in
/// practice; this guards against a sender bug).
util::Json parse_body(const util::WireFrame& frame);

}  // namespace a4nn::cluster
