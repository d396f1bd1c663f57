// Model/dataset/optimizer behaviour: training converges on a separable
// synthetic problem, checkpoints restore exactly, and the batch machinery
// partitions epochs correctly.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "nn/factory.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"

namespace a4nn::nn {
namespace {

/// Two-class 1x4x4 images: class 0 bright in the left half, class 1 bright
/// in the right half, plus noise — trivially separable by a small CNN.
Dataset make_separable(std::size_t per_class, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset data(1, 4, 4);
  std::vector<float> img(16);
  for (std::size_t i = 0; i < per_class; ++i) {
    for (std::int64_t label = 0; label < 2; ++label) {
      for (std::size_t y = 0; y < 4; ++y) {
        for (std::size_t x = 0; x < 4; ++x) {
          const bool bright = label == 0 ? x < 2 : x >= 2;
          img[y * 4 + x] =
              static_cast<float>((bright ? 1.0 : 0.0) + rng.normal(0.0, 0.1));
        }
      }
      data.add_sample(img, label);
    }
  }
  return data;
}

std::unique_ptr<Sequential> tiny_trunk(util::Rng& rng) {
  auto trunk = std::make_unique<Sequential>();
  trunk->append(std::make_unique<Conv2d>(1, 4, 3, 1, 1, rng));
  trunk->append(std::make_unique<ReLU>());
  trunk->append(std::make_unique<GlobalAvgPool>());
  trunk->append(std::make_unique<Linear>(4, 2, rng));
  return trunk;
}

TEST(Dataset, AddAndAccess) {
  Dataset d(1, 2, 2);
  d.add_sample(std::vector<float>{1, 2, 3, 4}, 0);
  d.add_sample(std::vector<float>{5, 6, 7, 8}, 1);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.image_numel(), 4u);
  EXPECT_EQ(d.image(1)[3], 8.0f);
  EXPECT_EQ(d.label(1), 1);
  EXPECT_EQ(d.num_classes(), 2u);
  EXPECT_THROW(d.add_sample(std::vector<float>{1.0f}, 0),
               std::invalid_argument);
  EXPECT_THROW(d.add_sample(std::vector<float>{1, 2, 3, 4}, -1),
               std::invalid_argument);
  EXPECT_THROW(d.image(5), std::out_of_range);
}

TEST(Dataset, GatherBuildsBatch) {
  Dataset d = make_separable(4, 1);
  std::vector<std::size_t> idx{0, 3, 5};
  const auto batch = d.gather(idx);
  EXPECT_EQ(batch.images.shape(), (tensor::Shape{3, 1, 4, 4}));
  EXPECT_EQ(batch.labels.size(), 3u);
  EXPECT_EQ(batch.labels[1], d.label(3));
  EXPECT_EQ(batch.images[16 + 5], d.image(3)[5]);
}

TEST(Dataset, SplitPartitionsWithoutLoss) {
  Dataset d = make_separable(25, 2);  // 50 samples
  util::Rng rng(3);
  const auto [train, test] = d.split(0.8, rng);
  EXPECT_EQ(train.size(), 40u);
  EXPECT_EQ(test.size(), 10u);
  EXPECT_THROW(d.split(1.5, rng), std::invalid_argument);
}

TEST(BatchIterator, CoversEveryIndexOnce) {
  util::Rng rng(4);
  BatchIterator it(10, 3, rng);
  std::multiset<std::size_t> seen;
  std::size_t batches = 0;
  for (auto b = it.next(); !b.empty(); b = it.next()) {
    seen.insert(b.begin(), b.end());
    ++batches;
  }
  EXPECT_EQ(batches, 4u);  // 3+3+3+1
  EXPECT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(BatchIterator, NoShuffleKeepsOrder) {
  util::Rng rng(5);
  BatchIterator it(5, 2, rng, /*shuffle=*/false);
  EXPECT_EQ(it.next(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(it.next(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(it.next(), (std::vector<std::size_t>{4}));
  EXPECT_TRUE(it.next().empty());
}

TEST(Model, RejectsBadTrunk) {
  util::Rng rng(6);
  auto no_head = std::make_unique<Sequential>();
  no_head->append(std::make_unique<Conv2d>(1, 4, 3, 1, 1, rng));
  EXPECT_THROW(Model(std::move(no_head), tensor::Shape{1, 4, 4}),
               std::invalid_argument);
  EXPECT_THROW(Model(nullptr, tensor::Shape{1, 4, 4}), std::invalid_argument);
}

TEST(Model, LearnsSeparableProblem) {
  const Dataset train = make_separable(40, 7);
  const Dataset val = make_separable(10, 8);
  util::Rng rng(9);
  Model model(tiny_trunk(rng), {1, 4, 4});
  Sgd opt(0.1, 0.9);
  double first_loss = 0.0, last_loss = 0.0;
  for (int e = 0; e < 12; ++e) {
    const EpochMetrics m = model.train_epoch(train, 16, opt, rng);
    if (e == 0) first_loss = m.loss;
    last_loss = m.loss;
  }
  EXPECT_LT(last_loss, first_loss);
  const EpochMetrics val_metrics = model.evaluate(val);
  EXPECT_GT(val_metrics.accuracy, 95.0);
}

TEST(Model, AdamAlsoConverges) {
  const Dataset train = make_separable(40, 10);
  util::Rng rng(11);
  Model model(tiny_trunk(rng), {1, 4, 4});
  Adam opt(0.01);
  for (int e = 0; e < 12; ++e) model.train_epoch(train, 16, opt, rng);
  EXPECT_GT(model.evaluate(train).accuracy, 95.0);
}

TEST(Model, FlopsAndParameterCount) {
  util::Rng rng(12);
  Model model(tiny_trunk(rng), {1, 4, 4});
  EXPECT_GT(model.flops_per_image(), 0u);
  // conv: 4*(1*9)+4 bias; linear: 2*4+2 bias.
  EXPECT_EQ(model.parameter_count(), 36u + 4u + 8u + 2u);
}

TEST(Model, CheckpointRestoresExactPredictions) {
  const Dataset train = make_separable(20, 13);
  util::Rng rng(14);
  Model model(tiny_trunk(rng), {1, 4, 4});
  Sgd opt(0.05);
  for (int e = 0; e < 3; ++e) model.train_epoch(train, 8, opt, rng);

  const util::Json ckpt = model.checkpoint();
  // Round-trip through the stored encoding like the lineage tracker does.
  Model restored = Model::from_checkpoint(util::Json::decode(ckpt.encode()));

  const auto batch = train.gather(std::vector<std::size_t>{0, 1, 2});
  const Tensor a = model.predict(batch.images);
  const Tensor b = restored.predict(batch.images);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Model, EvaluateRejectsEmptyDataset) {
  util::Rng rng(15);
  Model model(tiny_trunk(rng), {1, 4, 4});
  Dataset empty(1, 4, 4);
  EXPECT_THROW(model.evaluate(empty), std::invalid_argument);
  Sgd opt(0.1);
  EXPECT_THROW(model.train_epoch(empty, 8, opt, rng), std::invalid_argument);
}

TEST(Optimizer, SgdMomentumAcceleratesAlongConstantGradient) {
  Tensor w({1}, {0.0f});
  Tensor g({1}, {1.0f});
  std::vector<ParamSlot> slots{{"w", &w, &g}};
  Sgd opt(0.1, 0.9);
  opt.step(slots);
  const float first_step = -w[0];
  const float w_before = w[0];
  opt.step(slots);
  const float second_step = -(w[0] - w_before);
  EXPECT_GT(second_step, first_step);  // velocity accumulates
  EXPECT_THROW(Sgd(0.0), std::invalid_argument);
}

TEST(Optimizer, AdamFirstStepIsLrSized) {
  Tensor w({1}, {0.0f});
  Tensor g({1}, {0.5f});
  std::vector<ParamSlot> slots{{"w", &w, &g}};
  Adam opt(0.01);
  opt.step(slots);
  // With bias correction the first Adam step is ~lr * sign(grad).
  EXPECT_NEAR(w[0], -0.01f, 1e-4f);
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Tensor w({1}, {10.0f});
  Tensor g({1}, {0.0f});
  std::vector<ParamSlot> slots{{"w", &w, &g}};
  Sgd opt(0.1, 0.0, 0.1);
  opt.step(slots);
  EXPECT_LT(w[0], 10.0f);
}

}  // namespace
}  // namespace a4nn::nn
