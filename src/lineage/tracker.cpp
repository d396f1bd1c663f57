#include "lineage/tracker.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

#include "util/checksum.hpp"
#include "util/frame.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace a4nn::lineage {

namespace fs = std::filesystem;

std::string model_dir_name(int model_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "model_%05d", model_id);
  return buf;
}

namespace {

constexpr std::string_view kSnapshotSuffix = ".ckpt";
constexpr std::string_view kStateSuffix = ".state";

std::string epoch_file_name(std::size_t epoch, std::string_view suffix) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "epoch_%04zu", epoch);
  return buf + std::string(suffix);
}

/// Whether `name` is a pre-binary artifact, whose weights were JSON
/// decimals (epoch_NNNN.ckpt.json / epoch_NNNN.state.json).
bool is_decimal_json_artifact(std::string_view name) {
  return parse_indexed_name(name, "epoch_", ".ckpt.json") ||
         parse_indexed_name(name, "epoch_", ".state.json");
}

std::vector<std::size_t> epochs_with_suffix(const fs::path& dir,
                                            std::string_view suffix) {
  std::vector<std::size_t> epochs;
  for (const auto& file : util::list_files(dir)) {
    const auto epoch =
        parse_indexed_name(file.filename().string(), "epoch_", suffix);
    if (epoch) epochs.push_back(*epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

}  // namespace

std::string snapshot_file_name(std::size_t epoch) {
  return epoch_file_name(epoch, kSnapshotSuffix);
}

std::string training_state_file_name(std::size_t epoch) {
  return epoch_file_name(epoch, kStateSuffix);
}

std::string manifest_file_name() { return "manifest.journal"; }

std::optional<std::size_t> parse_indexed_name(std::string_view name,
                                              std::string_view prefix,
                                              std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (!suffix.empty() && name.substr(name.size() - suffix.size()) != suffix)
    return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::size_t value = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || end != digits.data() + digits.size())
    return std::nullopt;
  return value;
}

std::string read_artifact(const fs::path& path) {
  return util::unframe_or_legacy(util::read_file(path)).payload;
}

util::Json read_json_artifact(const fs::path& path) {
  return util::Json::decode(read_artifact(path));
}

std::vector<std::size_t> snapshot_epochs_in(const fs::path& dir) {
  return epochs_with_suffix(dir, kSnapshotSuffix);
}

std::vector<std::size_t> training_state_epochs_in(const fs::path& dir) {
  return epochs_with_suffix(dir, kStateSuffix);
}

namespace {

/// One committed artifact as recorded in the manifest journal.
struct ManifestEntry {
  std::string rel;        // path relative to the commons root
  std::uint64_t size = 0; // file size as stored (framed bytes)
  std::uint32_t crc = 0;  // CRC-32 of the file bytes as stored
};

/// Serialized form: `<crc32 of body, 8 hex> <body>` where body is
/// `<artifact crc, 8 hex> <size> <relative path>`. The leading line CRC
/// makes a torn or bit-flipped journal line deterministically detectable.
std::string manifest_line(const ManifestEntry& entry) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%08x %llu ", entry.crc,
                static_cast<unsigned long long>(entry.size));
  const std::string body = buf + entry.rel;
  char line_crc[12];
  std::snprintf(line_crc, sizeof(line_crc), "%08x ", util::crc32(body));
  return line_crc + body;
}

bool parse_manifest_line(std::string_view line, ManifestEntry& out) {
  // <8 hex line-crc> ' ' <8 hex artifact-crc> ' ' <size> ' ' <rel path>
  if (line.size() < 9 || line[8] != ' ') return false;
  std::uint32_t line_crc = 0;
  auto [lp, lec] = std::from_chars(line.data(), line.data() + 8, line_crc, 16);
  if (lec != std::errc{} || lp != line.data() + 8) return false;
  const std::string_view body = line.substr(9);
  if (util::crc32(body) != line_crc) return false;

  if (body.size() < 9 || body[8] != ' ') return false;
  std::uint32_t crc = 0;
  auto [cp, cec] = std::from_chars(body.data(), body.data() + 8, crc, 16);
  if (cec != std::errc{} || cp != body.data() + 8) return false;
  std::string_view rest = body.substr(9);

  std::uint64_t size = 0;
  auto [sp, sec] = std::from_chars(rest.data(), rest.data() + rest.size(), size);
  if (sec != std::errc{} || sp == rest.data() ||
      sp == rest.data() + rest.size() || *sp != ' ')
    return false;
  rest.remove_prefix(static_cast<std::size_t>(sp - rest.data()) + 1);
  if (rest.empty()) return false;

  out.rel = std::string(rest);
  out.size = size;
  out.crc = crc;
  return true;
}

/// Parse a journal image into entries (in append order), returning the
/// number of torn/malformed lines dropped. An unterminated final line is
/// torn by definition — a truncation can cut exactly at a line boundary.
std::size_t parse_manifest(std::string_view text,
                           std::vector<ManifestEntry>& out) {
  std::size_t torn = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool terminated = nl != std::string_view::npos;
    const std::string_view line =
        text.substr(pos, (terminated ? nl : text.size()) - pos);
    pos = terminated ? nl + 1 : text.size();
    if (line.empty()) continue;
    ManifestEntry entry;
    if (terminated && parse_manifest_line(line, entry))
      out.push_back(std::move(entry));
    else
      ++torn;
  }
  return torn;
}

}  // namespace

LineageTracker::LineageTracker(TrackerConfig config)
    : config_(std::move(config)) {
  if (config_.root.empty())
    throw std::invalid_argument("LineageTracker: empty root path");
  util::ensure_dir(config_.root);
  util::ensure_dir(config_.root / "models");
  // Resume on an existing commons: adopt the surviving journal so appends
  // supersede instead of clobbering. Torn lines are dropped here and
  // repaired on disk by the next commit or a deep fsck.
  const fs::path journal = config_.root / manifest_file_name();
  if (fs::exists(journal)) {
    std::string text;
    bool readable = true;
    try {
      text = util::read_file(journal);
    } catch (const std::exception& e) {
      readable = false;
      util::log_warn("tracker: unreadable manifest journal (", e.what(), ")");
    }
    std::vector<ManifestEntry> entries;
    const std::size_t torn = parse_manifest(text, entries);
    if (torn > 0)
      util::log_warn("tracker: dropped ", torn, " torn journal line(s)");
    if (torn > 0 || !readable) {
      journal_repair_.emplace();
      for (const auto& entry : entries) {
        *journal_repair_ += manifest_line(entry);
        *journal_repair_ += '\n';
      }
    }
  }
}

void LineageTracker::commit_locked(const fs::path& path, const util::Json& doc,
                                   int indent, util::Durability durability) {
  util::trace::Scope span("journal.commit", "lineage");
  if (!config_.durable) durability = util::Durability::kBuffered;
  const std::string framed = util::frame(doc.encode(indent));
  util::write_file(path, framed, durability);

  ManifestEntry entry;
  entry.rel = fs::relative(path, config_.root).generic_string();
  entry.size = framed.size();
  entry.crc = util::crc32(framed);
  const std::string line = manifest_line(entry) + '\n';
  const util::Durability journal_durability = config_.durable
                                                  ? util::Durability::kFsync
                                                  : util::Durability::kBuffered;
  const fs::path journal = config_.root / manifest_file_name();
  std::size_t journal_bytes = line.size();
  util::Timer fsync_timer;
  if (journal_repair_) {
    journal_bytes += journal_repair_->size();
    util::write_file(journal, *journal_repair_ + line, journal_durability);
    journal_repair_.reset();
  } else {
    util::append_file(journal, line, journal_durability);
  }
  const double journal_write_seconds = fsync_timer.seconds();

  const double bytes = static_cast<double>(framed.size() + journal_bytes);
  if (metrics_) {
    metrics_->counter("journal.commits").add();
    metrics_->counter("journal.bytes_written").add(bytes);
    if (journal_durability == util::Durability::kFsync)
      metrics_->counter("journal.fsync_seconds").add(journal_write_seconds);
  }
  span.arg("artifact_bytes", static_cast<double>(framed.size()));
  span.arg("journal_bytes", static_cast<double>(journal_bytes));
  span.arg("journal_write_seconds", journal_write_seconds);
}

void LineageTracker::record_search_config(const util::Json& config) {
  if (sealed_.load()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  commit_locked(config_.root / "search.json", config, 2,
                util::Durability::kBuffered);
}

void LineageTracker::record_artifact(const std::string& rel_path,
                                     const util::Json& doc) {
  if (sealed_.load()) return;
  if (rel_path.empty() || rel_path.find('/') != std::string::npos ||
      rel_path.find("..") != std::string::npos)
    throw std::invalid_argument(
        "record_artifact: rel_path must be a plain root-level file name");
  std::lock_guard<std::mutex> lock(mutex_);
  commit_locked(config_.root / rel_path, doc, 2, util::Durability::kBuffered);
}

bool LineageTracker::wants_snapshot(std::size_t epoch) const {
  return config_.snapshot_every > 0 && epoch % config_.snapshot_every == 0;
}

fs::path LineageTracker::model_dir(int model_id) const {
  return config_.root / "models" / model_dir_name(model_id);
}

void LineageTracker::record_model_epoch(int model_id, std::size_t epoch,
                                        const nn::Model& model) {
  if (sealed_.load()) return;
  const util::Json ckpt = model.checkpoint();
  std::lock_guard<std::mutex> lock(mutex_);
  commit_locked(model_dir(model_id) / snapshot_file_name(epoch), ckpt, -1,
                util::Durability::kFsync);
}

void LineageTracker::record_training_state(int model_id, std::size_t epoch,
                                           const util::Json& state) {
  if (sealed_.load()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  commit_locked(model_dir(model_id) / training_state_file_name(epoch), state,
                -1, util::Durability::kFsync);
}

void LineageTracker::record_evaluation(const nas::EvaluationRecord& record) {
  if (sealed_.load()) return;
  const util::Json j = record.to_json();
  std::lock_guard<std::mutex> lock(mutex_);
  commit_locked(model_dir(record.model_id) / "record.json", j, 2,
                util::Durability::kBuffered);
}

DataCommons::DataCommons(fs::path root) : root_(std::move(root)) {
  if (!fs::exists(root_ / "models"))
    throw std::invalid_argument("DataCommons: " + root_.string() +
                                " is not a commons tree");
}

util::Json DataCommons::search_config() const {
  return read_json_artifact(root_ / "search.json");
}

std::vector<int> DataCommons::model_ids() const {
  std::vector<int> ids;
  for (const auto& entry : fs::directory_iterator(root_ / "models")) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    const auto id = parse_indexed_name(name, "model_", "");
    if (!id) {
      util::log_warn("commons: ignoring non-model directory models/", name);
      continue;
    }
    ids.push_back(static_cast<int>(*id));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<nas::EvaluationRecord> DataCommons::load_records() const {
  std::vector<nas::EvaluationRecord> records;
  for (int id : model_ids()) {
    const fs::path path = root_ / "models" / model_dir_name(id) / "record.json";
    if (!fs::exists(path)) continue;
    records.push_back(
        nas::EvaluationRecord::from_json(read_json_artifact(path)));
  }
  return records;
}

std::vector<std::size_t> DataCommons::snapshot_epochs(int model_id) const {
  return snapshot_epochs_in(root_ / "models" / model_dir_name(model_id));
}

std::vector<std::size_t> DataCommons::training_state_epochs(
    int model_id) const {
  return training_state_epochs_in(root_ / "models" / model_dir_name(model_id));
}

nn::Model DataCommons::load_model(int model_id, std::size_t epoch) const {
  const fs::path path =
      root_ / "models" / model_dir_name(model_id) / snapshot_file_name(epoch);
  return nn::Model::from_checkpoint(read_json_artifact(path));
}

util::Json DataCommons::load_training_state(int model_id,
                                            std::size_t epoch) const {
  const fs::path path = root_ / "models" / model_dir_name(model_id) /
                        training_state_file_name(epoch);
  return read_json_artifact(path);
}

util::Json DataCommons::load_artifact(const std::string& rel_path) const {
  return read_json_artifact(root_ / rel_path);
}

bool DataCommons::has_artifact(const std::string& rel_path) const {
  return fs::exists(root_ / rel_path);
}

namespace {

/// Move a corrupt file into <root>/quarantine/<relative path>, recording
/// the reason. Never throws: fsck must make progress past any breakage.
void quarantine_file(const fs::path& root, const fs::path& file,
                     const std::string& reason, FsckReport& report) {
  const fs::path rel = fs::relative(file, root);
  const fs::path target = root / "quarantine" / rel;
  std::error_code ec;
  fs::create_directories(target.parent_path(), ec);
  fs::rename(file, target, ec);
  if (ec) fs::remove(file, ec);  // cross-device or racing writer: drop it
  report.issues.push_back({rel, reason});
  ++report.files_quarantined;
  util::log_warn("fsck: quarantined ", rel.string(), " (", reason, ")");
}

}  // namespace

FsckReport DataCommons::fsck(FsckMode mode) {
  FsckReport report;
  report.deep = mode == FsckMode::kDeep;

  // Leftover staging files from crashed writers anywhere in the tree.
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root_, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file()) continue;
    const std::string name = it->path().filename().string();
    if (name.find(".tmp") != std::string::npos) {
      std::error_code rm;
      fs::remove(it->path(), rm);
      if (!rm) ++report.tmp_files_removed;
    }
  }

  const fs::path search = root_ / "search.json";
  if (fs::exists(search)) {
    try {
      read_json_artifact(search);
    } catch (const std::exception& e) {
      quarantine_file(root_, search, e.what(), report);
    }
  }

  for (int id : model_ids()) {
    ++report.models_scanned;
    const fs::path dir = root_ / "models" / model_dir_name(id);

    const fs::path record = dir / "record.json";
    if (fs::exists(record)) {
      try {
        nas::EvaluationRecord::from_json(read_json_artifact(record));
        ++report.records_valid;
      } catch (const std::exception& e) {
        quarantine_file(root_, record, e.what(), report);
      }
    }

    for (const auto& file : util::list_files(dir)) {
      const std::string name = file.filename().string();
      const bool ckpt = parse_indexed_name(name, "epoch_", kSnapshotSuffix)
                            .has_value();
      const bool state =
          parse_indexed_name(name, "epoch_", kStateSuffix).has_value();
      const bool decimal = is_decimal_json_artifact(name);
      if (!ckpt && !state && !decimal) continue;
      try {
        if (decimal)
          throw util::JsonError(
              "pre-binary artifact: weights stored as JSON decimals, a "
              "format this build has no reader for");
        const util::Json j = read_json_artifact(file);
        if (ckpt) {
          if (!j.contains("spec") || !j.contains("weights") ||
              !j.contains("input_shape"))
            throw util::JsonError("checkpoint missing spec/weights");
        } else {
          if (!j.contains("epoch") || !j.contains("rng") ||
              !j.contains("optimizer") || !j.contains("record"))
            throw util::JsonError("training state missing required fields");
        }
      } catch (const std::exception& e) {
        quarantine_file(root_, file, e.what(), report);
      }
    }
  }

  if (mode == FsckMode::kDeep) {
    IntegrityReport& integrity = report.integrity;

    // Relative paths already dealt with by the parse-level pass above —
    // their journal entries are dropped silently, not re-reported.
    std::set<std::string> handled;
    for (const auto& issue : report.issues)
      handled.insert(issue.path.generic_string());

    // Every artifact surviving on disk, keyed by its journal-relative path.
    // Root-level .json files cover search.json plus run-level artifacts
    // committed via record_artifact (memo_index.json, table.json, ...).
    std::map<std::string, fs::path> disk;
    for (const auto& file : util::list_files(root_, ".json"))
      disk[file.filename().string()] = file;
    for (int id : model_ids()) {
      const fs::path dir = root_ / "models" / model_dir_name(id);
      for (const auto& file : util::list_files(dir)) {
        const std::string name = file.filename().string();
        if (name != "record.json" &&
            !parse_indexed_name(name, "epoch_", kSnapshotSuffix) &&
            !parse_indexed_name(name, "epoch_", kStateSuffix))
          continue;
        disk[fs::relative(file, root_).generic_string()] = file;
      }
    }

    // Load the journal; torn lines are dropped and counted.
    const fs::path journal_path = root_ / manifest_file_name();
    const bool have_journal = fs::exists(journal_path);
    std::vector<ManifestEntry> entries;
    if (have_journal) {
      std::string text;
      try {
        text = util::read_file(journal_path);
      } catch (const std::exception& e) {
        util::log_warn("fsck: unreadable manifest journal (", e.what(), ")");
      }
      integrity.journal_torn_lines = parse_manifest(text, entries);
      if (integrity.journal_torn_lines > 0)
        report.issues.push_back({manifest_file_name(),
                                 std::to_string(integrity.journal_torn_lines) +
                                     " torn journal line(s) repaired"});
    }
    std::map<std::string, ManifestEntry> manifest;
    for (auto& entry : entries) manifest[entry.rel] = std::move(entry);
    integrity.journal_entries = manifest.size();

    bool changed = integrity.journal_torn_lines > 0;
    for (auto it = manifest.begin(); it != manifest.end();) {
      const auto found = disk.find(it->first);
      if (found == disk.end()) {
        if (!handled.count(it->first)) {
          ++integrity.missing_files;
          report.issues.push_back(
              {it->first, "journaled artifact missing on disk"});
          util::log_warn("fsck: journaled artifact missing: ", it->first);
        }
        it = manifest.erase(it);
        changed = true;
        continue;
      }
      std::string bytes;
      try {
        bytes = util::read_file(found->second);
      } catch (const std::exception&) {
        bytes.clear();
      }
      if (bytes.size() != it->second.size ||
          util::crc32(bytes) != it->second.crc) {
        quarantine_file(root_, found->second,
                        "size/crc mismatch against manifest journal", report);
        ++integrity.crc_mismatches;
        disk.erase(found);
        it = manifest.erase(it);
        changed = true;
        continue;
      }
      ++integrity.files_verified;
      disk.erase(found);
      ++it;
    }

    // Artifacts on disk the journal does not know: a crash between an
    // artifact commit and its journal append (framed — adopt and report),
    // or a legacy pre-framing tree (unframed — adopt silently).
    for (const auto& [rel, path] : disk) {
      std::string bytes;
      try {
        bytes = util::read_file(path);
      } catch (const std::exception&) {
        continue;
      }
      if (util::is_framed(bytes)) {
        ++integrity.unjournaled_adopted;
        report.issues.push_back({rel, "artifact missing from journal; adopted"});
        util::log_warn("fsck: adopted unjournaled artifact ", rel);
      } else {
        ++integrity.legacy_unframed;
      }
      ManifestEntry entry;
      entry.rel = rel;
      entry.size = bytes.size();
      entry.crc = util::crc32(bytes);
      manifest[rel] = std::move(entry);
      changed = true;
    }

    if (changed && (!manifest.empty() || have_journal)) {
      std::string text;
      for (const auto& [rel, entry] : manifest) {
        text += manifest_line(entry);
        text += '\n';
      }
      util::write_file(journal_path, text, util::Durability::kFsync);
      integrity.journal_rewritten = true;
    }
  }
  return report;
}

}  // namespace a4nn::lineage
