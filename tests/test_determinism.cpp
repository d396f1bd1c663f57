// Determinism regression: training and the full seeded search must be
// bit-identical regardless of the kernel worker count. This is what lets
// the PENGUIN prediction engine terminate training early on reproducible
// per-epoch fitness whether the host has 1 core or 64, and makes runs
// comparable across machines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/a4nn.hpp"
#include "nn/factory.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace a4nn {
namespace {

// Restores the global kernel worker count even when an assertion fails.
struct IntraOpGuard {
  ~IntraOpGuard() { tensor::set_intra_op_threads(1); }
};

nn::Dataset synthetic_dataset(std::size_t samples, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Dataset data(1, 8, 8);
  std::vector<float> img(64);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::int64_t label = static_cast<std::int64_t>(i % 2);
    for (auto& p : img)
      p = static_cast<float>(rng.normal()) + (label ? 0.5f : -0.5f);
    data.add_sample(img, label);
  }
  return data;
}

std::unique_ptr<nn::Sequential> small_trunk(std::uint64_t seed) {
  util::Rng rng(seed);
  auto seq = std::make_unique<nn::Sequential>();
  seq->append(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, rng));
  seq->append(std::make_unique<nn::ReLU>());
  seq->append(std::make_unique<nn::MaxPool2d>(2));
  seq->append(std::make_unique<nn::Flatten>());
  seq->append(std::make_unique<nn::Linear>(4 * 4 * 4, 2, rng));
  return seq;
}

// Train a small model from a fixed seed and return its final weights as a
// canonical string.
std::string train_and_dump(std::size_t kernel_threads, bool fuse) {
  tensor::set_intra_op_threads(kernel_threads);
  auto trunk = small_trunk(99);
  if (fuse) trunk->fuse_epilogues();
  nn::Model model(std::move(trunk), {1, 8, 8});
  const nn::Dataset data = synthetic_dataset(48, 7);
  nn::Sgd opt(0.05, 0.9, 1e-4);
  util::Rng rng(5);
  for (int epoch = 0; epoch < 3; ++epoch)
    model.train_epoch(data, 8, opt, rng);
  return model.trunk().weights().encode();
}

TEST(Determinism, TrainingBitIdenticalAtPoolSizes128) {
  IntraOpGuard guard;
  const std::string w1 = train_and_dump(1, /*fuse=*/false);
  const std::string w2 = train_and_dump(2, /*fuse=*/false);
  const std::string w8 = train_and_dump(8, /*fuse=*/false);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST(Determinism, TrainingBitIdenticalAtPoolSizesUnderTunedBlocking) {
  // The autotuner may install per-(k, n) blocking that changes KC and the
  // small-path cutoff — a different (but fixed) summation order. Pool-size
  // invariance must survive any such table: the order may depend on the
  // tuned config, never on the worker count.
  IntraOpGuard guard;
  struct TableGuard {
    ~TableGuard() { tensor::clear_tuned_tile_configs(); }
  } table_guard;
  // The shapes this model's layers emit: conv im2col GEMM (k=9, n=64) and
  // the dense layer (k=64, n=2). Non-default kc and a forced blocked path
  // make the tuned order observably different from the compiled defaults.
  tensor::TileConfig forced;
  forced.mc = 36;
  forced.kc = 4;
  forced.nc = 64;
  forced.small_row_flops = 0;
  tensor::set_tuned_tile_configs({{9, 64, forced}, {64, 2, forced}});
  const std::string w1 = train_and_dump(1, /*fuse=*/false);
  const std::string w2 = train_and_dump(2, /*fuse=*/false);
  const std::string w8 = train_and_dump(8, /*fuse=*/false);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST(Determinism, FusedEpiloguesMatchUnfusedTraining) {
  // fuse_epilogues() folds Conv/Linear + ReLU into one layer; the fused
  // network must train to bit-identical weights.
  IntraOpGuard guard;
  const std::string unfused = train_and_dump(1, /*fuse=*/false);
  const std::string fused = train_and_dump(1, /*fuse=*/true);
  // The dumps differ in layer count (ReLU removed), so compare the layers
  // that carry weights: conv is layer 0 in both; linear is layer 4 vs 3.
  const util::Json ju = util::Json::decode(unfused);
  const util::Json jf = util::Json::decode(fused);
  const auto& lu = ju.at("layers").as_array();
  const auto& lf = jf.at("layers").as_array();
  ASSERT_EQ(lu.size(), 5u);
  ASSERT_EQ(lf.size(), 4u);
  EXPECT_TRUE(lu[0] == lf[0]) << "conv weights diverged";
  EXPECT_TRUE(lu[4] == lf[3]) << "linear weights diverged";
}

TEST(Determinism, FusedModelSpecRoundTripsThroughFactory) {
  auto trunk = small_trunk(42);
  ASSERT_EQ(trunk->fuse_epilogues(), 1u);
  ASSERT_EQ(trunk->layer_count(), 4u);
  const util::Json spec = trunk->spec();
  util::Rng rng(0);
  auto rebuilt = nn::make_sequential(spec, rng);
  EXPECT_EQ(rebuilt->spec().dump(), spec.dump());
  auto* conv = dynamic_cast<nn::Conv2d*>(&rebuilt->layer(0));
  ASSERT_NE(conv, nullptr);
  EXPECT_EQ(conv->activation(), nn::Activation::kRelu);
}

core::WorkflowConfig mini_search_config() {
  core::WorkflowConfig cfg;
  cfg.dataset.images_per_class = 40;
  cfg.dataset.detector.pixels = 8;
  cfg.dataset.intensity = xfel::BeamIntensity::kHigh;
  cfg.nas.population_size = 4;
  cfg.nas.offspring_per_generation = 4;
  cfg.nas.generations = 2;
  cfg.nas.max_epochs = 6;
  cfg.nas.space.input_shape = {1, 8, 8};
  cfg.nas.space.stem_channels = 4;
  cfg.trainer.max_epochs = 6;
  cfg.trainer.engine.e_pred = 6.0;
  cfg.cluster.num_gpus = 2;
  return cfg;
}

struct SearchFingerprint {
  std::vector<std::vector<double>> fitness_histories;
  std::vector<double> fitness;
  std::vector<std::size_t> pareto;
  std::vector<std::size_t> final_population;

  bool operator==(const SearchFingerprint&) const = default;
};

SearchFingerprint run_mini_search(std::size_t kernel_threads) {
  tensor::set_intra_op_threads(kernel_threads);
  core::A4nnWorkflow workflow(mini_search_config());
  const core::WorkflowResult result = workflow.run();
  SearchFingerprint fp;
  for (const auto& r : result.search.history) {
    fp.fitness_histories.push_back(r.fitness_history);
    fp.fitness.push_back(r.fitness);
  }
  fp.pareto = result.search.pareto;
  fp.final_population = result.search.final_population;
  return fp;
}

TEST(Determinism, TracingDoesNotPerturbSearchResults) {
  // The tracing layer's zero-interference guarantee: a fully-instrumented
  // run (spans + metrics recording everywhere) produces bit-identical
  // search results to a bare one. Recording must never touch RNG streams,
  // float accumulation order, or scheduling.
  IntraOpGuard guard;
  const SearchFingerprint off = run_mini_search(1);

  util::trace::start();
  const SearchFingerprint on = run_mini_search(1);
  util::trace::stop();
  EXPECT_GT(util::trace::event_count(), 0u)
      << "tracing was supposed to be capturing during the second run";
  util::trace::clear();

  EXPECT_TRUE(off == on) << "tracing changed the search results";
}

TEST(Determinism, SeededSearchBitIdenticalAtPoolSizes128) {
  // Two-generation mini search, repeated at kernel pool sizes 1, 2 and 8:
  // per-epoch fitness histories (the engine's early-termination input),
  // final fitness, Pareto front, and surviving population must all match
  // exactly — not approximately.
  IntraOpGuard guard;
  const SearchFingerprint f1 = run_mini_search(1);
  const SearchFingerprint f2 = run_mini_search(2);
  const SearchFingerprint f8 = run_mini_search(8);
  ASSERT_EQ(f1.fitness_histories.size(), 8u);
  EXPECT_TRUE(f1 == f2) << "pool size 2 diverged from serial";
  EXPECT_TRUE(f1 == f8) << "pool size 8 diverged from serial";
}

}  // namespace
}  // namespace a4nn
