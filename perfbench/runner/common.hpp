// Shared pieces of the benchmark runner: options, the result report,
// clocks, scratch directories, and the fixed reference configurations
// every workload is built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/a4nn.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace a4nn;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root inside the checkout; every commons lives below it.
  fs::path tmp;
  /// NAS seed of the reference searches (search, commons, champion).
  std::uint64_t reference_seed = 2023;
};

/// What one run prints: metrics with units plus the failure accounting.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed output check; the run is then not correct.
  void fail(const std::string& why);
  void attempt(std::size_t n, std::size_t failed = 0);

  bool correct() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }
  util::Json to_json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> problems_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Monotonic seconds since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Fresh, empty directory below opts.tmp; removed again on destruction so
/// no run ever reads a commons another run wrote.
class ScratchDir {
 public:
  ScratchDir(const Options& opts, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Bytes of every regular file below `root`.
std::uintmax_t tree_bytes(const fs::path& root);

/// Everything an output check compares between two runs of one search:
/// per record its genome, fitness, epochs and early stop, plus the front.
std::string search_fingerprint(const nas::SearchResult& result);

// ---- reference configurations -------------------------------------------

/// The commons every workload writes: a snapshot every epoch, commits
/// buffered rather than fsynced. fsync latency on a shared host varies
/// several-fold from minute to minute and would swamp the commit path
/// (framing, codec, journal) that the lineage metrics are meant to track.
lineage::TrackerConfig commons_at(const fs::path& root);

/// `search`: engine-on NSGA-Net at the paper's 25-epoch budget on 16 px
/// medium-intensity XFEL frames, no commons.
core::WorkflowConfig search_config(const Options& opts);
/// `commons`: 8 px tiny-model search writing a commons with a snapshot
/// every epoch, memo on, duplicates allowed, coalescing.
core::WorkflowConfig commons_config(const Options& opts, const fs::path& root);
/// `serve`: the small search whose champion is served.
core::WorkflowConfig champion_config(const Options& opts, const fs::path& root);

/// Median wall seconds of `reps` syntheses of `config`; the last dataset
/// is kept in `out`. Fails the report if two syntheses differ.
double timed_synthesis(const xfel::XfelDatasetConfig& config, std::size_t reps,
                       xfel::XfelDataset& out, Report& report);

/// Summary numbers of one search, as a user reads them off a4nn_run.
struct SearchNumbers {
  double wall_s = 0.0;
  double epochs_saved_pct = 0.0;
  double best_fitness_pct = 0.0;
  std::size_t evaluations = 0;
  std::size_t failed = 0;
  std::size_t reused = 0;  // memo hits + coalesced + resumed
  std::string fingerprint;
};
SearchNumbers summarize(const core::WorkflowResult& result);

}  // namespace perfbench
