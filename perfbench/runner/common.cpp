#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <system_error>

#include "analytics/analyzer.hpp"
#include "stats.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  problems_.push_back(why);
}

void Report::attempt(std::size_t n, std::size_t failed) {
  attempted_ += n;
  failed_ += failed;
}

util::Json Report::to_json() const {
  util::Json j = util::Json::object();
  j["correct"] = correct();
  j["attempted"] = attempted_;
  j["failed"] = failed_;
  util::Json metrics = util::Json::object();
  for (const auto& [name, v] : metrics_) {
    util::Json m = util::Json::object();
    m["value"] = v.value;
    m["unit"] = v.unit;
    metrics[name] = std::move(m);
  }
  j["metrics"] = std::move(metrics);
  util::Json problems = util::Json::array();
  for (const auto& p : problems_) problems.push_back(p);
  j["problems"] = std::move(problems);
  return j;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScratchDir::ScratchDir(const Options& opts, const std::string& name) {
  static int counter = 0;
  path_ = opts.tmp / (name + "-" + std::to_string(counter++));
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::uintmax_t tree_bytes(const fs::path& root) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

std::string search_fingerprint(const nas::SearchResult& result) {
  std::string out;
  char buf[160];
  for (const auto& r : result.history) {
    std::snprintf(buf, sizeof(buf), "%d:%s:%a:%zu:%d:%d;", r.model_id,
                  r.genome.key().c_str(), r.fitness, r.epochs_trained,
                  r.early_terminated ? 1 : 0, r.failed ? 1 : 0);
    out += buf;
  }
  out += "front";
  for (std::size_t i : result.pareto) {
    out += ':';
    out += std::to_string(i);
  }
  return out;
}

namespace {

/// Order-sensitive digest of a dataset's pixels and labels.
std::uint64_t dataset_digest(const nn::Dataset& data) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  const auto mix = [&h](const void* bytes, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  };
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto image = data.image(i);
    mix(image.data(), image.size_bytes());
    const std::int64_t label = data.label(i);
    mix(&label, sizeof(label));
  }
  return h;
}

core::WorkflowConfig base_config(const Options& opts, std::size_t pixels,
                                 std::size_t images_per_class) {
  core::WorkflowConfig cfg;
  cfg.dataset.intensity = xfel::BeamIntensity::kMedium;
  cfg.dataset.images_per_class = images_per_class;
  cfg.dataset.detector.pixels = pixels;
  cfg.nas.space.input_shape = {1, pixels, pixels};
  cfg.cluster.num_gpus = 1;
  cfg.memo = nas::MemoMode::kCold;
  cfg.seed = opts.reference_seed;
  return cfg;
}

void set_budget(core::WorkflowConfig& cfg, std::size_t population,
                std::size_t offspring, std::size_t generations,
                std::size_t epochs) {
  cfg.nas.population_size = population;
  cfg.nas.offspring_per_generation = offspring;
  cfg.nas.generations = generations;
  cfg.nas.max_epochs = epochs;
  cfg.trainer.max_epochs = epochs;
  cfg.trainer.engine.e_pred = static_cast<double>(epochs);
}

}  // namespace

lineage::TrackerConfig commons_at(const fs::path& root) {
  return lineage::TrackerConfig{root, /*snapshot_every=*/1, /*durable=*/false};
}

core::WorkflowConfig search_config(const Options& opts) {
  core::WorkflowConfig cfg = base_config(opts, 16, 80);
  set_budget(cfg, 4, 4, 2, 25);
  return cfg;
}

core::WorkflowConfig commons_config(const Options& opts, const fs::path& root) {
  core::WorkflowConfig cfg = base_config(opts, 8, 20);
  set_budget(cfg, 4, 4, 8, 25);
  cfg.memo = nas::MemoMode::kOn;
  cfg.nas.allow_duplicates = true;
  cfg.coalesce_duplicates = true;
  cfg.lineage = commons_at(root);
  return cfg;
}

core::WorkflowConfig champion_config(const Options& opts, const fs::path& root) {
  core::WorkflowConfig cfg = base_config(opts, 16, 30);
  set_budget(cfg, 4, 4, 2, 10);
  cfg.lineage = commons_at(root);
  return cfg;
}

double timed_synthesis(const xfel::XfelDatasetConfig& config, std::size_t reps,
                       xfel::XfelDataset& out, Report& report) {
  std::vector<double> times;
  std::uint64_t first = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    xfel::XfelDataset data = xfel::generate_xfel_dataset(config);
    times.push_back(now_s() - t0);
    const std::uint64_t digest = dataset_digest(data.train) ^
                                 (dataset_digest(data.validation) * 31);
    if (i == 0) first = digest;
    else if (digest != first)
      report.fail("XFEL synthesis is not deterministic for one seed");
    out = std::move(data);
  }
  return median(times);
}

SearchNumbers summarize(const core::WorkflowResult& result) {
  SearchNumbers n;
  const auto& history = result.search.history;
  const auto savings = analytics::epoch_savings(history);
  n.wall_s = result.measured_wall_seconds;
  n.epochs_saved_pct = 100.0 * savings.saved_fraction;
  n.best_fitness_pct = analytics::fitness_summary(history).best;
  n.evaluations = history.size();
  n.failed = result.summary.failed_evaluations;
  n.reused = result.summary.memo_hits + result.summary.coalesced_evaluations +
             result.summary.resumed_evaluations;
  n.fingerprint = search_fingerprint(result.search);
  return n;
}

}  // namespace perfbench
