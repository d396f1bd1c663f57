#include "cluster/protocol.hpp"

namespace a4nn::cluster {

bool known_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MsgType::kHello) &&
         type <= static_cast<std::uint8_t>(MsgType::kShutdown);
}

const char* type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kReject: return "reject";
    case MsgType::kJobRequest: return "job_request";
    case MsgType::kJobResult: return "job_result";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHeartbeatAck: return "heartbeat_ack";
    case MsgType::kShutdown: return "shutdown";
  }
  return "unknown";
}

util::Json Hello::to_json() const {
  util::Json j = util::Json::object();
  j["protocol"] = protocol;
  j["worker"] = worker;
  j["ram_bytes"] = static_cast<double>(ram_bytes);
  j["threads"] = threads;
  j["config_crc"] = static_cast<double>(config_crc);
  return j;
}

Hello Hello::from_json(const util::Json& j) {
  Hello h;
  h.protocol = static_cast<int>(j.at("protocol").as_number());
  h.worker = j.at("worker").as_string();
  h.ram_bytes = static_cast<std::uint64_t>(j.at("ram_bytes").as_number());
  h.threads = static_cast<std::size_t>(j.at("threads").as_number());
  h.config_crc = static_cast<std::uint32_t>(j.at("config_crc").as_number());
  return h;
}

util::Json Welcome::to_json() const {
  util::Json j = util::Json::object();
  j["worker_index"] = worker_index;
  return j;
}

Welcome Welcome::from_json(const util::Json& j) {
  Welcome w;
  w.worker_index = static_cast<std::size_t>(j.at("worker_index").as_number());
  return w;
}

util::Json Reject::to_json() const {
  util::Json j = util::Json::object();
  j["reason"] = reason;
  return j;
}

Reject Reject::from_json(const util::Json& j) {
  Reject r;
  r.reason = j.at("reason").as_string();
  return r;
}

util::Json JobRequest::to_json() const {
  util::Json j = util::Json::object();
  j["job"] = static_cast<double>(job);
  j["model_id"] = model_id;
  j["generation"] = generation;
  j["seed"] = seed_hex;
  j["genome"] = genome;
  if (objective != "flops") j["objective"] = objective;
  return j;
}

JobRequest JobRequest::from_json(const util::Json& j) {
  JobRequest r;
  r.job = static_cast<std::uint64_t>(j.at("job").as_number());
  r.model_id = static_cast<int>(j.at("model_id").as_number());
  r.generation = static_cast<int>(j.at("generation").as_number());
  r.seed_hex = j.at("seed").as_string();
  r.genome = j.at("genome");
  r.objective = j.string_or("objective", "flops");
  return r;
}

util::Json JobResult::to_json() const {
  util::Json j = util::Json::object();
  j["job"] = static_cast<double>(job);
  j["record"] = record;
  return j;
}

JobResult JobResult::from_json(const util::Json& j) {
  JobResult r;
  r.job = static_cast<std::uint64_t>(j.at("job").as_number());
  r.record = j.at("record");
  return r;
}

std::string encode(MsgType type, const util::Json& body) {
  return util::encode_wire_frame(static_cast<std::uint8_t>(type), body.dump());
}

std::string encode(MsgType type) { return encode(type, util::Json::object()); }

util::Json parse_body(const util::WireFrame& frame) {
  return util::Json::parse(frame.payload);
}

}  // namespace a4nn::cluster
