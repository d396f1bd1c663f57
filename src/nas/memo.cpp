#include "nas/memo.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace a4nn::nas {

namespace {

std::string digest_hex(std::uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

}  // namespace

const char* memo_mode_name(MemoMode mode) {
  switch (mode) {
    case MemoMode::kOff:
      return "off";
    case MemoMode::kCold:
      return "cold";
    case MemoMode::kOn:
      return "on";
  }
  return "off";
}

MemoMode memo_mode_from_name(const std::string& name) {
  if (name == "off") return MemoMode::kOff;
  if (name == "cold") return MemoMode::kCold;
  if (name == "on") return MemoMode::kOn;
  throw std::invalid_argument("memo_mode_from_name: unknown mode '" + name +
                              "' (expected off|cold|on)");
}

std::uint64_t memo_model_seed(std::uint64_t run_seed, const Genome& genome) {
  // Mirror the legacy model-id mix (golden-ratio multiply) but feed it the
  // genome digest, so the stream a model trains with is a pure function of
  // (run seed, architecture).
  return run_seed ^ (0x9E3779B97F4A7C15ULL * genome.digest());
}

void FitnessMemo::insert(const EvaluationRecord& record) {
  if (record.failed) return;  // failures are never cache hits
  // An inherited record's curves depend on the ancestor it warm-started
  // from, not on the genome alone — replaying it for a duplicate bred from
  // a different parent would break the kCold == kOn bit-identity contract.
  // Warm-started evaluations therefore never enter the cache (and the
  // evaluator never serves a hit to a child that will warm-start).
  if (record.inherited_from_model >= 0) return;
  const std::uint64_t d = record.genome.digest();
  const std::string key = record.genome.key();
  auto it = entries_.find(d);
  if (it == entries_.end()) {
    entries_.emplace(d, Entry{key, record});
    model_digest_.emplace(record.model_id, d);
    return;
  }
  if (it->second.key != key) return;  // digest collision: keep first owner
  // Already cached; remember the duplicate's model id so inheritance can
  // still resolve it back to the canonical snapshots.
  model_digest_.emplace(record.model_id, d);
}

void FitnessMemo::warm(std::span<const EvaluationRecord> records) {
  for (const auto& r : records) insert(r);
}

const EvaluationRecord* FitnessMemo::lookup(const Genome& genome) const {
  if (!reuse_enabled()) return nullptr;
  auto it = entries_.find(genome.digest());
  if (it == entries_.end() || it->second.key != genome.key()) return nullptr;
  return &it->second.record;
}

int FitnessMemo::canonical_model(const Genome& genome) const {
  auto it = entries_.find(genome.digest());
  if (it == entries_.end() || it->second.key != genome.key()) return -1;
  return it->second.record.model_id;
}

int FitnessMemo::canonical_model_of(int model_id) const {
  auto mit = model_digest_.find(model_id);
  if (mit == model_digest_.end()) return -1;
  auto it = entries_.find(mit->second);
  if (it == entries_.end()) return -1;
  return it->second.record.model_id;
}

util::Json memo_index_json(std::span<const EvaluationRecord> history) {
  // Rebuild digest -> canonical entry from the journaled history (first
  // successful record per genome wins), so the index reflects exactly what
  // the run persisted — independent of in-memory cache state or mode.
  struct IndexEntry {
    std::uint64_t digest;
    std::string key;
    int model_id;
    double fitness;
    std::uint64_t flops;
    std::size_t epochs_trained;
  };
  std::vector<IndexEntry> entries;
  // O(n) dedup: keys seen per digest (a vector, so a digest collision
  // still yields one entry per distinct key, exactly as a linear scan
  // over all prior entries would).
  std::unordered_map<std::uint64_t, std::vector<std::string>> seen;
  for (const auto& r : history) {
    if (r.failed) continue;
    const std::uint64_t d = r.genome.digest();
    std::string key = r.genome.key();
    auto& keys = seen[d];
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    entries.push_back(
        {d, key, r.model_id, r.fitness, r.flops, r.epochs_trained});
    keys.push_back(std::move(key));
  }
  std::sort(entries.begin(), entries.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return a.digest < b.digest;
            });

  util::Json j = util::Json::object();
  j["format"] = std::string("a4nn-memo-index-v1");
  j["unique_genomes"] = entries.size();
  util::JsonArray arr;
  arr.reserve(entries.size());
  for (const auto& e : entries) {
    util::Json ej = util::Json::object();
    ej["digest"] = digest_hex(e.digest);
    ej["key"] = e.key;
    ej["model_id"] = e.model_id;
    ej["fitness"] = e.fitness;
    ej["flops"] = e.flops;
    ej["epochs_trained"] = e.epochs_trained;
    arr.push_back(std::move(ej));
  }
  j["entries"] = util::Json(std::move(arr));
  return j;
}

}  // namespace a4nn::nas
