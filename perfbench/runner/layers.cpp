#include "layers.hpp"

#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "nn/phase_block.hpp"
#include "penguin/engine.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

struct KindCost {
  double fwd_s = 0.0;
  double bwd_s = 0.0;
  double flops = 0.0;  // forward FLOPs over the timed passes
};

using GemmShape = std::tuple<std::size_t, std::size_t, std::size_t>;

tensor::Shape per_image(const tensor::Shape& batch_shape) {
  return tensor::Shape(batch_shape.begin() + 1, batch_shape.end());
}

/// Per-image GEMMs (m = out channels, k = patch, n = output cells) that
/// the model's convolutions run in training, with their multiplicity.
void collect_conv_gemms(nn::Model& model, std::map<GemmShape, double>& shapes) {
  tensor::Shape in = model.input_shape();
  nn::Sequential& trunk = model.trunk();
  for (std::size_t i = 0; i < trunk.layer_count(); ++i) {
    nn::Layer& layer = trunk.layer(i);
    const tensor::Shape out = layer.output_shape(in);
    if (layer.kind() == "conv2d") {
      const util::Json spec = layer.spec();
      const auto k = static_cast<std::size_t>(spec.at("kernel").as_number());
      shapes[{out[0], in[0] * k * k, out[1] * out[2]}] += 1.0;
    } else if (layer.kind() == "phase") {
      // Macro-space nodes: conv3x3, same channels, same resolution.
      const auto& phase = dynamic_cast<nn::PhaseBlock&>(layer);
      if (phase.active_nodes() > 0)
        shapes[{in[0], in[0] * 9, in[1] * in[2]}] +=
            static_cast<double>(phase.active_nodes());
    }
    in = out;
  }
}

/// Seconds per call of tensor::gemm at (m, k, n), timed for >= 20 ms.
double gemm_seconds(std::size_t m, std::size_t k, std::size_t n,
                    util::Rng& rng) {
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform() - 0.5);
  for (auto& v : b) v = static_cast<float>(rng.uniform() - 0.5);
  tensor::gemm(m, k, n, a.data(), b.data(), c.data());  // warm caches
  std::size_t calls = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 8; ++i)
      tensor::gemm(m, k, n, a.data(), b.data(), c.data());
    calls += 8;
    elapsed = now_s() - t0;
  } while (elapsed < 0.02);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

const std::vector<std::string>& layer_kinds() {
  static const std::vector<std::string> kinds = {
      "conv2d", "batchnorm2d", "relu", "phase", "maxpool2d", "gap", "linear"};
  return kinds;
}

void report_zero_layers(Report& report) {
  const std::vector<std::pair<const char*, const char*>> metrics = {
      {"xfel.synth_s", "s"},
      {"nas.self_s", "s"},
      {"nas.evaluations", "count"},
      {"nas.reuse_ratio", "ratio"},
      {"orchestrator.train_s", "s"},
      {"orchestrator.epochs", "count"},
      {"orchestrator.epoch_ms", "ms"},
      {"orchestrator.dispatch_s", "s"},
      {"nn.eval_ms", "ms"},
      {"nn.predict_ms", "ms"},
      {"tensor.conv_gemm_gflops", "GFLOP/s"},
      {"tensor.peak_gemm_gflops", "GFLOP/s"},
      {"tensor.conv_gemm_pct_peak", "%"},
      {"penguin.predict_us", "us"},
      {"penguin.early_stop_ratio", "ratio"},
      {"lineage.snapshot_commit_ms", "ms"},
      {"lineage.state_commit_ms", "ms"},
      {"lineage.record_commit_ms", "ms"},
      {"lineage.snapshot_kb", "KB"},
      {"lineage.load_records_s", "s"},
      {"lineage.fsck_deep_s", "s"},
      {"lineage.load_model_ms", "ms"},
      {"serve.p50_ms", "ms"},
      {"serve.p99_ms", "ms"},
      {"serve.max_rps", "req/s"},
      {"serve.queue_ms", "ms"},
      {"serve.service_ms", "ms"},
      {"serve.batch_mean", "count"},
      {"serve.shed", "count"},
      {"serve.rejected", "count"},
      {"serve.generator_late_ms", "ms"},
      {"quant.predict_ms", "ms"},
      {"unattributed_pct", "%"},
      {"trace_overhead_pct", "%"},
  };
  for (const auto& [name, unit] : metrics) report.metric(name, 0.0, unit);
  for (const auto& kind : layer_kinds()) {
    report.metric("nn." + kind + ".fwd_ms", 0.0, "ms");
    report.metric("nn." + kind + ".bwd_ms", 0.0, "ms");
    report.metric("nn." + kind + ".gflops", 0.0, "GFLOP/s");
  }
}

void report_search_layers(Report& report, double synth_s,
                          const TracedRun& traced) {
  const TracedSpans& s = traced.spans;
  const auto& summary = traced.result.summary;
  const std::size_t evaluations = traced.result.search.history.size();
  const std::size_t reused = summary.memo_hits +
                             summary.coalesced_evaluations +
                             summary.resumed_evaluations;
  report.metric("xfel.synth_s", synth_s, "s");
  report.metric("nas.self_s", s.nas_self_s, "s");
  report.metric("nas.evaluations", static_cast<double>(evaluations), "count");
  report.metric("nas.reuse_ratio",
                evaluations ? static_cast<double>(reused) /
                                  static_cast<double>(evaluations)
                            : 0.0,
                "ratio");
  report.metric("orchestrator.train_s", s.train_s, "s");
  report.metric("orchestrator.epochs", static_cast<double>(s.epochs), "count");
  report.metric("orchestrator.epoch_ms",
                s.epochs ? 1e3 * s.train_s / static_cast<double>(s.epochs)
                         : 0.0,
                "ms");
  report.metric("orchestrator.dispatch_s", s.dispatch_s, "s");
}

void report_model_layers(Report& report, const core::WorkflowConfig& config,
                         const xfel::XfelDataset& data,
                         const std::vector<nas::EvaluationRecord>& history) {
  nas::SearchSpaceConfig space = config.nas.space;
  space.classes = data.train.num_classes();
  const std::size_t batch =
      std::min(config.trainer.batch_size, data.train.size());
  std::vector<std::size_t> rows(batch);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  const nn::Dataset::Batch input = data.train.gather(rows);

  constexpr int kPasses = 3;
  std::map<std::string, KindCost> costs;
  std::map<GemmShape, double> conv_shapes;
  std::vector<double> eval_ms;
  std::set<std::string> seen;
  std::size_t models = 0;
  for (const auto& record : history) {
    if (record.failed || !seen.insert(record.genome.key()).second) continue;
    ++models;
    util::Rng init(static_cast<std::uint64_t>(record.model_id) + 1);
    nn::Model model = nas::decode_genome(record.genome, space, init);
    nn::Sequential& trunk = model.trunk();
    for (int pass = 0; pass < kPasses; ++pass) {
      std::vector<tensor::Tensor> acts{input.images};
      for (std::size_t i = 0; i < trunk.layer_count(); ++i) {
        nn::Layer& layer = trunk.layer(i);
        KindCost& c = costs[layer.kind()];
        c.flops += static_cast<double>(layer.flops(per_image(acts.back().shape()))) *
                   static_cast<double>(batch);
        const double t0 = now_s();
        acts.push_back(layer.forward(acts.back(), /*training=*/true));
        c.fwd_s += now_s() - t0;
      }
      tensor::Tensor grad = tensor::Tensor::full(
          acts.back().shape(), 1.0f / static_cast<float>(batch));
      for (std::size_t i = trunk.layer_count(); i-- > 0;) {
        nn::Layer& layer = trunk.layer(i);
        const double t0 = now_s();
        grad = layer.backward(grad);
        costs[layer.kind()].bwd_s += now_s() - t0;
      }
    }
    const double t0 = now_s();
    model.evaluate(data.validation);
    eval_ms.push_back(1e3 * (now_s() - t0));
    collect_conv_gemms(model, conv_shapes);
  }
  if (models == 0) return;

  // Per genome and training batch, averaged over the timed passes.
  const double per = static_cast<double>(models) * kPasses;
  for (const auto& kind : layer_kinds()) {
    const KindCost c = costs.count(kind) ? costs.at(kind) : KindCost{};
    report.metric("nn." + kind + ".fwd_ms", 1e3 * c.fwd_s / per, "ms");
    report.metric("nn." + kind + ".bwd_ms", 1e3 * c.bwd_s / per, "ms");
    report.metric("nn." + kind + ".gflops",
                  c.fwd_s > 0.0 ? c.flops / c.fwd_s * 1e-9 : 0.0, "GFLOP/s");
  }
  report.metric("nn.eval_ms", median(eval_ms), "ms");

  // tensor::gemm at the convs' own shapes, weighted by how often each runs,
  // against a square reference shape.
  util::Rng rng(7);
  double flops = 0.0;
  double seconds = 0.0;
  for (const auto& [shape, count] : conv_shapes) {
    const auto [m, k, n] = shape;
    const double f = 2.0 * static_cast<double>(m * k * n);
    flops += count * f;
    seconds += count * gemm_seconds(m, k, n, rng);
  }
  const double conv_gflops = seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  constexpr std::size_t kPeak = 256;
  const double peak_gflops = 2.0 * kPeak * kPeak * kPeak /
                             gemm_seconds(kPeak, kPeak, kPeak, rng) * 1e-9;
  report.metric("tensor.conv_gemm_gflops", conv_gflops, "GFLOP/s");
  report.metric("tensor.peak_gemm_gflops", peak_gflops, "GFLOP/s");
  report.metric("tensor.conv_gemm_pct_peak", 100.0 * conv_gflops / peak_gflops,
                "%");

  // The prediction engine over every recorded history prefix, exactly the
  // calls Algorithm 1 makes after each epoch.
  penguin::PredictionEngine engine(config.trainer.engine);
  std::size_t calls = 0;
  std::size_t early = 0;
  const double p0 = now_s();
  for (const auto& record : history) {
    if (record.failed) continue;
    early += record.early_terminated ? 1 : 0;
    std::vector<double> predictions;
    for (std::size_t e = 1; e <= record.fitness_history.size(); ++e) {
      const auto prefix =
          std::span<const double>(record.fitness_history).first(e);
      if (const auto p = engine.predict(prefix)) predictions.push_back(*p);
      engine.converged(predictions);
      ++calls;
    }
  }
  const double predict_s = now_s() - p0;
  report.metric("penguin.predict_us",
                calls ? 1e6 * predict_s / static_cast<double>(calls) : 0.0,
                "us");
  report.metric("penguin.early_stop_ratio",
                history.empty() ? 0.0
                                : static_cast<double>(early) /
                                      static_cast<double>(history.size()),
                "ratio");
}

void report_lineage_layers(Report& report, const lineage::TrackerConfig& config,
                           const fs::path& scratch) {
  lineage::DataCommons commons(config.root);
  double t0 = now_s();
  const std::vector<nas::EvaluationRecord> records = commons.load_records();
  report.metric("lineage.load_records_s", now_s() - t0, "s");

  // Replay each model's newest snapshot, training state and record into a
  // fresh tracker with the workload's snapshot cadence and durability.
  lineage::TrackerConfig replay_config = config;
  replay_config.root = scratch;
  lineage::LineageTracker replay(replay_config);
  replay.record_search_config(commons.search_config());
  std::vector<double> snapshot_ms, state_ms, record_ms, load_ms;
  std::uintmax_t snapshot_bytes = 0;
  std::size_t snapshots = 0;
  for (const auto& record : records) {
    const auto epochs = commons.snapshot_epochs(record.model_id);
    if (epochs.empty()) continue;
    const std::size_t epoch = epochs.back();
    t0 = now_s();
    const nn::Model model = commons.load_model(record.model_id, epoch);
    load_ms.push_back(1e3 * (now_s() - t0));
    t0 = now_s();
    replay.record_model_epoch(record.model_id, epoch, model);
    snapshot_ms.push_back(1e3 * (now_s() - t0));
    const fs::path snap = config.root / "models" /
                          lineage::model_dir_name(record.model_id) /
                          lineage::snapshot_file_name(epoch);
    snapshot_bytes += fs::file_size(snap);
    ++snapshots;
    const auto states = commons.training_state_epochs(record.model_id);
    if (!states.empty()) {
      const util::Json state =
          commons.load_training_state(record.model_id, states.back());
      t0 = now_s();
      replay.record_training_state(record.model_id, states.back(), state);
      state_ms.push_back(1e3 * (now_s() - t0));
    }
    t0 = now_s();
    replay.record_evaluation(record);
    record_ms.push_back(1e3 * (now_s() - t0));
  }
  if (!snapshot_ms.empty()) {
    report.metric("lineage.snapshot_commit_ms", median(snapshot_ms), "ms");
    report.metric("lineage.record_commit_ms", median(record_ms), "ms");
    report.metric("lineage.load_model_ms", median(load_ms), "ms");
    report.metric("lineage.snapshot_kb",
                  static_cast<double>(snapshot_bytes) /
                      static_cast<double>(snapshots) / 1024.0,
                  "KB");
  }
  if (!state_ms.empty())
    report.metric("lineage.state_commit_ms", median(state_ms), "ms");

  t0 = now_s();
  commons.fsck(lineage::FsckMode::kDeep);
  report.metric("lineage.fsck_deep_s", now_s() - t0, "s");
}

void report_accounting(Report& report, double wall_s,
                       const std::vector<double>& spans_s, double traced_s,
                       double untraced_median_s) {
  report.metric("unattributed_pct", unattributed_pct(wall_s, spans_s), "%");
  report.metric("trace_overhead_pct",
                100.0 * (traced_s - untraced_median_s) / untraced_median_s,
                "%");
}

}  // namespace perfbench
