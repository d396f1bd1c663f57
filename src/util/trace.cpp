#include "util/trace.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "util/fsutil.hpp"
#include "util/log.hpp"

namespace a4nn::util::trace {

namespace {

using steady = std::chrono::steady_clock;

struct Event {
  std::string name;
  std::string cat;
  char ph = 'X';  // 'X' complete, 'i' instant
  double ts_us = 0.0;
  double dur_us = 0.0;
  int pid = kHostPid;
  int tid = 0;
  std::vector<Arg> args;
};

struct Recorder {
  std::atomic<bool> enabled{false};
  std::mutex mutex;
  steady::time_point epoch{};
  std::vector<Event> events;
  std::map<std::thread::id, int> thread_ids;
  std::map<int, std::string> process_names;
  std::map<std::pair<int, int>, std::string> thread_names;
  std::set<std::string> counted;
};

Recorder& rec() {
  static Recorder r;
  return r;
}

Json args_to_json(const std::vector<Arg>& args) {
  Json j = Json::object();
  for (const auto& a : args) j[a.key] = a.value;
  return j;
}

}  // namespace

bool enabled() { return rec().enabled.load(std::memory_order_relaxed); }

void start() {
  Recorder& r = rec();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.events.clear();
  r.epoch = steady::now();
  r.enabled.store(true, std::memory_order_relaxed);
}

void stop() { rec().enabled.store(false, std::memory_order_relaxed); }

void clear() {
  Recorder& r = rec();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.events.clear();
  r.process_names.clear();
  r.thread_names.clear();
  r.counted.clear();
}

double now_us() {
  Recorder& r = rec();
  if (!r.enabled.load(std::memory_order_relaxed)) return 0.0;
  return std::chrono::duration<double, std::micro>(steady::now() - r.epoch)
      .count();
}

int current_tid() {
  Recorder& r = rec();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto id = std::this_thread::get_id();
  auto it = r.thread_ids.find(id);
  if (it == r.thread_ids.end())
    it = r.thread_ids.emplace(id, static_cast<int>(r.thread_ids.size())).first;
  return it->second;
}

void emit_complete(std::string name, std::string cat, double ts_us,
                   double dur_us, int pid, int tid, std::vector<Arg> args) {
  Recorder& r = rec();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  Event e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(r.mutex);
  r.events.push_back(std::move(e));
}

void emit_instant(std::string name, std::string cat, double ts_us, int pid,
                  int tid, std::vector<Arg> args) {
  Recorder& r = rec();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  Event e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'i';
  e.ts_us = ts_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(r.mutex);
  r.events.push_back(std::move(e));
}

void name_process(int pid, std::string name) {
  Recorder& r = rec();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.process_names[pid] = std::move(name);
}

void name_thread(int pid, int tid, std::string name) {
  Recorder& r = rec();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.thread_names[{pid, tid}] = std::move(name);
}

void declare_counted(std::string name) {
  Recorder& r = rec();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.counted.insert(std::move(name));
}

std::size_t event_count() {
  Recorder& r = rec();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.events.size();
}

Json to_json(const Json* extra) {
  Recorder& r = rec();
  std::lock_guard<std::mutex> lock(r.mutex);
  Json events = Json::array();
  for (const auto& [pid, name] : r.process_names) {
    Json m = Json::object();
    m["name"] = "process_name";
    m["ph"] = "M";
    m["pid"] = pid;
    m["tid"] = 0;
    Json margs = Json::object();
    margs["name"] = name;
    m["args"] = std::move(margs);
    events.push_back(std::move(m));
  }
  for (const auto& [key, name] : r.thread_names) {
    Json m = Json::object();
    m["name"] = "thread_name";
    m["ph"] = "M";
    m["pid"] = key.first;
    m["tid"] = key.second;
    Json margs = Json::object();
    margs["name"] = name;
    m["args"] = std::move(margs);
    events.push_back(std::move(m));
  }
  for (const auto& e : r.events) {
    Json j = Json::object();
    j["name"] = e.name;
    j["cat"] = e.cat;
    j["ph"] = std::string(1, e.ph);
    j["ts"] = e.ts_us;
    if (e.ph == 'X') j["dur"] = e.dur_us;
    if (e.ph == 'i') j["s"] = "t";
    j["pid"] = e.pid;
    j["tid"] = e.tid;
    if (!e.args.empty()) j["args"] = args_to_json(e.args);
    events.push_back(std::move(j));
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  if (!r.counted.empty()) {
    Json counted = Json::array();
    for (const auto& name : r.counted) counted.push_back(Json(name));
    doc["counted"] = std::move(counted);
  }
  if (extra && extra->is_object()) {
    for (const auto& [key, value] : extra->as_object()) doc[key] = value;
  }
  return doc;
}

bool write(const std::filesystem::path& path, const Json* extra) {
  try {
    write_file(path, to_json(extra).dump(1));
    return true;
  } catch (const std::exception& e) {
    log_error("trace: failed to write ", path.string(), ": ", e.what());
    return false;
  }
}

Scope::Scope(const char* name, const char* cat)
    : live_(enabled()), name_(name), cat_(cat) {
  if (live_) start_us_ = now_us();
}

void Scope::arg(const char* key, double value) {
  if (live_) args_.push_back({key, value});
}

Scope::~Scope() {
  if (!live_) return;
  // Capture-stop race: a scope opened while enabled still records, so its
  // span is never half-lost; emit_complete drops it if capture ended.
  const double end_us = now_us();
  emit_complete(name_, cat_, start_us_, end_us - start_us_, kHostPid,
                current_tid(), std::move(args_));
}

}  // namespace a4nn::util::trace
