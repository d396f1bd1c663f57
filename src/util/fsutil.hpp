// Thin filesystem helpers for the data commons (directory trees of JSON
// record trails and model snapshots).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace a4nn::util {

/// How hard write_file pushes a committed file toward stable storage.
enum class Durability {
  /// Flush to the OS page cache (default). The rename is atomic, so a
  /// process crash never tears the file — but a power cut after the
  /// rename can still lose or corrupt it.
  kBuffered,
  /// fdatasync the staged file before the rename and fsync the parent
  /// directory after it, so the committed file survives a power cut.
  /// Used for manifest-journal commits and training checkpoints.
  kFsync,
};

/// Create `dir` and all parents; no-op if it already exists.
void ensure_dir(const std::filesystem::path& dir);

/// Write `content` atomically (unique tmp file + rename) so a crashed run
/// never leaves a truncated record trail in the commons.
void write_file(const std::filesystem::path& path, const std::string& content,
                Durability durability = Durability::kBuffered);

/// Append `content` to `path` (created if absent) in one write. Crosses one
/// crash-point write boundary, like write_file. kFsync fdatasyncs the file,
/// and fsyncs the parent directory when the append created it. Used for
/// manifest-journal lines: appending keeps a commit O(1) in journal size.
void append_file(const std::filesystem::path& path, const std::string& content,
                 Durability durability = Durability::kBuffered);

/// Read an entire file; throws std::runtime_error if missing, or if a
/// regular file yields fewer/more bytes than its stat size reports (short
/// reads on special or concurrently-truncated files).
std::string read_file(const std::filesystem::path& path);

/// Sorted list of regular files directly inside `dir` matching `extension`
/// (e.g. ".json"); empty extension matches everything. Sorting removes any
/// directory-iteration-order dependence from fsck reports and tests.
std::vector<std::filesystem::path> list_files(
    const std::filesystem::path& dir, const std::string& extension = "");

/// A unique, empty scratch directory under the system temp dir. The caller
/// owns cleanup (tests remove it; benches leave artifacts for inspection).
std::filesystem::path make_temp_dir(const std::string& prefix);

/// Crash-point fuzzing. Every write_file and append_file call crosses one
/// numbered write boundary (a process-global 1-based counter). When a crash
/// point `k` is armed — via set_crash_after_writes(k) or the
/// A4NN_CRASH_AFTER_WRITES environment variable — the k-th write is torn
/// and the process _exit(1)s: a write_file stages its tmp file but never
/// renames it; an append_file writes only the first half of its bytes.
/// Writes 1..k-1 survive intact and nothing later happens. This is
/// exactly the on-disk state an OS crash can leave, made deterministic so
/// an acceptance test can sweep every k. 0 disables. The programmatic
/// setter counts k from the boundaries already crossed at the call, so a
/// forked child can arm its own crash point.
void set_crash_after_writes(std::uint64_t k);

/// Write boundaries crossed so far in this process (counts attempts,
/// committed or not). Used by the fuzzer sweep to size its k range.
std::uint64_t write_op_count();

}  // namespace a4nn::util
