// Layer-level correctness: analytic gradients vs finite differences,
// shape/FLOPs accounting, and spec/weights serialization round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "conv_reference.hpp"
#include "nn/factory.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/phase_block.hpp"
#include "nn/sequential.hpp"
#include "tensor/parallel.hpp"

namespace a4nn::nn {
namespace {

double dot(const Tensor& a, const Tensor& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i)
    acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

/// Check d<forward(x), w>/dx against backward(w) by central differences.
void check_input_gradient(Layer& layer, Tensor x, double tol = 2e-2) {
  util::Rng rng(99);
  layer.forward(x, true);
  Tensor probe = layer.forward(x, true);  // ensure caches match final pass
  Tensor w = Tensor::randn(probe.shape(), rng);
  layer.forward(x, true);
  const Tensor analytic = layer.backward(w);
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < x.numel(); i += std::max<std::size_t>(1, x.numel() / 24)) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fp = dot(layer.forward(xp, true), w);
    const double fm = dot(layer.forward(xm, true), w);
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tol * std::max(1.0, std::fabs(numeric)))
        << "input index " << i;
  }
}

/// Check parameter gradients the same way.
void check_param_gradients(Layer& layer, Tensor x, double tol = 2e-2) {
  util::Rng rng(101);
  Tensor probe = layer.forward(x, true);
  Tensor w = Tensor::randn(probe.shape(), rng);
  layer.zero_grad();
  layer.forward(x, true);
  layer.backward(w);
  for (auto& slot : layer.params()) {
    Tensor analytic = *slot.grad;  // copy before we perturb
    Tensor& value = *slot.value;
    for (std::size_t i = 0;
         i < value.numel();
         i += std::max<std::size_t>(1, value.numel() / 12)) {
      const float eps = 1e-2f;
      const float orig = value[i];
      value[i] = orig + eps;
      const double fp = dot(layer.forward(x, true), w);
      value[i] = orig - eps;
      const double fm = dot(layer.forward(x, true), w);
      value[i] = orig;
      const double numeric = (fp - fm) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], numeric,
                  tol * std::max(1.0, std::fabs(numeric)))
          << slot.name << "[" << i << "]";
    }
  }
}

Tensor random_input(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

TEST(Conv2d, OutputShapeAndFlops) {
  util::Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  EXPECT_EQ(conv.output_shape({3, 16, 16}), (Shape{8, 16, 16}));
  // 2*27+1 FLOPs per output element, 8*16*16 elements.
  EXPECT_EQ(conv.flops({3, 16, 16}), 16u * 16u * 8u * 55u);
  Conv2d strided(3, 4, 3, 2, 0, rng);
  EXPECT_EQ(strided.output_shape({3, 9, 9}), (Shape{4, 4, 4}));
}

TEST(Conv2d, ForwardMatchesDirectConvolution) {
  util::Rng rng(2);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  // Set kernel to a known box filter with zero bias.
  auto params = conv.params();
  for (std::size_t i = 0; i < 9; ++i) (*params[0].value)[i] = 1.0f;
  Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i + 1);
  const Tensor y = conv.forward(x, true);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 45.0f);  // sum 1..9
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  util::Rng rng(3);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  check_input_gradient(conv, random_input({2, 2, 5, 5}, 31));
  check_param_gradients(conv, random_input({2, 2, 5, 5}, 32));
}

TEST(Conv2d, StridedGradients) {
  util::Rng rng(4);
  Conv2d conv(1, 2, 3, 2, 1, rng);
  check_input_gradient(conv, random_input({2, 1, 6, 6}, 33));
}

TEST(Conv2d, RejectsBadInput) {
  util::Rng rng(5);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  Tensor wrong_channels({1, 3, 8, 8});
  EXPECT_THROW(conv.forward(wrong_channels, true), std::invalid_argument);
  EXPECT_THROW(Conv2d(0, 4, 3, 1, 1, rng), std::invalid_argument);
}

TEST(Linear, ForwardAndGradients) {
  util::Rng rng(6);
  Linear lin(7, 4, rng);
  EXPECT_EQ(lin.output_shape({7}), (Shape{4}));
  EXPECT_EQ(lin.flops({7}), 4u * 15u);
  check_input_gradient(lin, random_input({3, 7}, 34));
  check_param_gradients(lin, random_input({3, 7}, 35));
}

TEST(Linear, RejectsWrongWidth) {
  util::Rng rng(7);
  Linear lin(7, 4, rng);
  Tensor x({2, 6});
  EXPECT_THROW(lin.forward(x, true), std::invalid_argument);
}

TEST(ReLU, ForwardClampsAndGradientMasks) {
  ReLU relu;
  Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor g({4}, {1, 1, 1, 1});
  const Tensor gx = relu.backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[2], 1.0f);
}

TEST(MaxPool2d, ForwardAndRouting) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0f);
  Tensor g({1, 1, 1, 1}, {2.0f});
  const Tensor gx = pool.backward(g);
  EXPECT_EQ(gx[1], 2.0f);  // gradient routed to the argmax only
  EXPECT_EQ(gx[0], 0.0f);
}

TEST(MaxPool2d, GradientsMatchFiniteDifferences) {
  MaxPool2d pool(2);
  check_input_gradient(pool, random_input({2, 2, 4, 4}, 36));
}

TEST(MaxPool2d, ShapeValidation) {
  MaxPool2d pool(2);
  EXPECT_EQ(pool.output_shape({4, 8, 8}), (Shape{4, 4, 4}));
  Tensor tiny({1, 1, 1, 1});
  EXPECT_THROW(pool.forward(tiny, true), std::invalid_argument);
}

TEST(GlobalAvgPool, ForwardAndGradients) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = gap.forward(x, true);
  ASSERT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
  check_input_gradient(gap, random_input({2, 3, 4, 4}, 37));
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x = random_input({2, 3, 4, 4}, 38);
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Dropout, EvalIsIdentityTrainScales) {
  Dropout drop(0.5, 7);
  Tensor x = Tensor::full({1000}, 1.0f);
  const Tensor eval_out = drop.forward(x, false);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(eval_out[i], 1.0f);
  const Tensor train_out = drop.forward(x, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < 1000; ++i) {
    if (train_out[i] == 0.0f) ++zeros;
    sum += train_out[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros), 500.0, 70.0);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);  // inverted scaling keeps mean
  EXPECT_THROW(Dropout(1.0, 1), std::invalid_argument);
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  BatchNorm2d bn(2);
  Tensor x = random_input({4, 2, 3, 3}, 39);
  const Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < 9; ++i) {
        const float v = y[(n * 2 + c) * 9 + i];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    EXPECT_NEAR(sum / 36.0, 0.0, 1e-4);
    EXPECT_NEAR(sq / 36.0, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, GradientsMatchFiniteDifferences) {
  BatchNorm2d bn(2);
  check_input_gradient(bn, random_input({3, 2, 3, 3}, 40), 5e-2);
  check_param_gradients(bn, random_input({3, 2, 3, 3}, 41), 5e-2);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  util::Rng rng(42);
  // Train on shifted data so running stats move away from (0, 1).
  for (int i = 0; i < 50; ++i) {
    Tensor x = Tensor::randn({8, 1, 2, 2}, rng, 5.0f, 2.0f);
    bn.forward(x, true);
  }
  Tensor probe = Tensor::full({1, 1, 2, 2}, 5.0f);
  const Tensor y = bn.forward(probe, false);
  // Input at the running mean should normalize to ~0.
  EXPECT_NEAR(y[0], 0.0f, 0.3f);
}

TEST(PhaseBlock, ActiveNodePruningAndRepair) {
  util::Rng rng(8);
  PhaseSpec all_zero;
  all_zero.nodes = 4;
  all_zero.bits.assign(6, false);
  PhaseBlock block(all_zero, 4, rng);
  EXPECT_EQ(block.active_nodes(), 1u);  // repaired to one default node

  PhaseSpec chain;
  chain.nodes = 3;
  chain.bits = {true, false, true};  // 0->1, 1->2
  PhaseBlock chain_block(chain, 4, rng);
  EXPECT_EQ(chain_block.active_nodes(), 3u);
}

TEST(PhaseBlock, PreservesShapeAndCountsFlops) {
  util::Rng rng(9);
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, true, true};
  spec.skip = true;
  PhaseBlock block(spec, 4, rng);
  EXPECT_EQ(block.output_shape({4, 8, 8}), (Shape{4, 8, 8}));
  EXPECT_GT(block.flops({4, 8, 8}), 0u);
  Tensor x = random_input({2, 4, 8, 8}, 43);
  const Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(PhaseBlock, GradientsMatchFiniteDifferences) {
  util::Rng rng(10);
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, true, false};  // 0->1, 0->2; two loose ends
  spec.skip = true;
  PhaseBlock block(spec, 2, rng);
  check_input_gradient(block, random_input({2, 2, 4, 4}, 44), 6e-2);
}

TEST(PhaseBlock, SpecValidation) {
  util::Rng rng(11);
  PhaseSpec bad;
  bad.nodes = 3;
  bad.bits = {true};  // wrong count
  EXPECT_THROW(PhaseBlock(bad, 4, rng), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, LossAndGradient) {
  Tensor logits({2, 3}, {2.0f, 1.0f, 0.1f, 0.0f, 0.0f, 0.0f});
  std::vector<std::int64_t> labels{0, 2};
  const LossResult res = softmax_cross_entropy(logits, labels);
  EXPECT_GT(res.loss, 0.0);
  EXPECT_EQ(res.correct, 1u);  // row 1 is a three-way tie -> argmax 0 != 2
  // Gradient rows sum to zero (softmax minus one-hot).
  for (std::size_t n = 0; n < 2; ++n) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) row_sum += res.grad[n * 3 + c];
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
  // Uniform logits: loss = ln(3), grad for true class = (1/3 - 1)/batch.
  EXPECT_NEAR(res.grad[5], (1.0 / 3.0 - 1.0) / 2.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, NumericalGradient) {
  util::Rng rng(12);
  Tensor logits = Tensor::randn({3, 4}, rng);
  std::vector<std::int64_t> labels{1, 3, 0};
  const LossResult res = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double fp = softmax_cross_entropy(lp, labels).loss;
    const double fm = softmax_cross_entropy(lm, labels).loss;
    EXPECT_NEAR(res.grad[i], (fp - fm) / (2.0 * eps), 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, Validation) {
  Tensor logits({2, 3});
  std::vector<std::int64_t> wrong_count{0};
  EXPECT_THROW(softmax_cross_entropy(logits, wrong_count),
               std::invalid_argument);
  std::vector<std::int64_t> out_of_range{0, 5};
  EXPECT_THROW(softmax_cross_entropy(logits, out_of_range),
               std::invalid_argument);
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(13);
  Tensor logits = Tensor::randn({4, 5}, rng, 0.0f, 3.0f);
  const Tensor p = softmax(logits);
  for (std::size_t n = 0; n < 4; ++n) {
    double row = 0.0;
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_GE(p[n * 5 + c], 0.0f);
      row += p[n * 5 + c];
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(Serialization, LayerSpecWeightsRoundTrip) {
  util::Rng rng(14);
  Sequential seq;
  seq.append(std::make_unique<Conv2d>(1, 4, 3, 1, 1, rng));
  seq.append(std::make_unique<BatchNorm2d>(4));
  seq.append(std::make_unique<ReLU>());
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, false, true};
  spec.skip = true;
  seq.append(std::make_unique<PhaseBlock>(spec, 4, rng));
  seq.append(std::make_unique<MaxPool2d>(2));
  seq.append(std::make_unique<GlobalAvgPool>());
  seq.append(std::make_unique<Linear>(4, 2, rng));

  Tensor x = random_input({2, 1, 8, 8}, 45);
  // Capture BN running stats by running one training pass first.
  seq.forward(x, true);
  const Tensor y = seq.forward(x, false);

  util::Rng rebuild_rng(999);
  auto rebuilt = make_sequential(seq.spec(), rebuild_rng);
  rebuilt->load_weights(seq.weights());
  const Tensor y2 = rebuilt->forward(x, false);
  ASSERT_EQ(y.shape(), y2.shape());
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], y2[i]);
}

TEST(Serialization, UnknownKindRejected) {
  util::Rng rng(15);
  util::Json bad = util::Json::object();
  bad["kind"] = "warp_drive";
  EXPECT_THROW(make_layer(bad, rng), std::invalid_argument);
}

TEST(Serialization, LoadWeightsShapeMismatchRejected) {
  util::Rng rng(16);
  Conv2d a(1, 2, 3, 1, 1, rng);
  Conv2d b(1, 3, 3, 1, 1, rng);
  EXPECT_THROW(a.load_weights(b.weights()), std::invalid_argument);
}

TEST(Sequential, FlopsAccumulateAcrossLayers) {
  util::Rng rng(17);
  Sequential seq;
  seq.append(std::make_unique<Conv2d>(1, 2, 3, 1, 1, rng));
  seq.append(std::make_unique<ReLU>());
  const std::uint64_t conv_flops = seq.layer(0).flops({1, 8, 8});
  const std::uint64_t relu_flops = seq.layer(1).flops({2, 8, 8});
  EXPECT_EQ(seq.flops({1, 8, 8}), conv_flops + relu_flops);
}

// Conv2d computes its input gradient with one GEMM per group of images and
// its im2col/col2im with shifted block copies; outputs and all gradients
// must equal, byte for byte, the one-GEMM-per-image loops it replaced, at
// every shape the search space emits, at 1 and 3 kernel threads, under the
// default blocking and under two tuned tables with kc < k: one forcing the
// blocked path, one the small path (which the fold must widen KC for).
TEST(Conv2dFold, TrainingMatchesPerImageReferenceBitForBit) {
  struct Guard {
    ~Guard() {
      tensor::clear_tuned_tile_configs();
      tensor::set_intra_op_threads(1);
    }
  } guard;
  struct Case {
    std::size_t in_ch, out_ch, hw, kernel, pad;
  };
  const Case cases[] = {
      {1, 4, 16, 3, 1},   // stem
      {4, 4, 16, 3, 1},   // phase shapes
      {8, 8, 8, 3, 1},   {16, 16, 4, 3, 1}, {16, 16, 2, 3, 1},
      {4, 8, 8, 1, 0},    // 1x1 transitions
      {8, 16, 4, 1, 0},
  };
  for (const Case& tc : cases) {
    tensor::ConvGeometry g{tc.in_ch, tc.hw, tc.hw, tc.kernel, 1, tc.pad};
    const std::size_t patch = g.patch_size(), cols = tc.hw * tc.hw;
    tensor::TileConfig blocked;
    blocked.mc = 12;
    blocked.kc = 2;
    blocked.nc = 32;
    blocked.small_row_flops = 0;
    tensor::TileConfig small = blocked;
    small.small_row_flops = SIZE_MAX;
    std::vector<std::vector<tensor::TunedTileEntry>> tables = {{}};
    for (const tensor::TileConfig& cfg : {blocked, small}) {
      // Every (k, n) key the layer's GEMMs use: forward, dW and dcol.
      std::set<std::pair<std::size_t, std::size_t>> keys = {
          {patch, cols}, {cols, patch}, {tc.out_ch, cols}};
      tables.emplace_back();
      for (const auto& [k, n] : keys) tables.back().push_back({k, n, cfg});
    }
    for (std::size_t table = 0; table < tables.size(); ++table) {
      for (std::size_t threads : {1, 3}) {
        for (std::size_t batch : {32, 7}) {
          for (bool relu : {false, true}) {
            SCOPED_TRACE(std::to_string(tc.in_ch) + "->" +
                         std::to_string(tc.out_ch) + "@" +
                         std::to_string(tc.hw) + " k" +
                         std::to_string(tc.kernel) + " table=" +
                         std::to_string(table) + " threads=" +
                         std::to_string(threads) + " batch=" +
                         std::to_string(batch) + " relu=" +
                         std::to_string(relu));
            tensor::set_tuned_tile_configs(tables[table]);
            tensor::set_intra_op_threads(threads);
            util::Rng rng(tc.in_ch * 100 + tc.hw + batch);
            Conv2d conv(tc.in_ch, tc.out_ch, tc.kernel, 1, tc.pad, rng);
            conv.set_activation(relu ? Activation::kRelu : Activation::kNone);
            // A non-zero bias, so the fused epilogue has work to do.
            Tensor& bias = *conv.params()[1].value;
            for (std::size_t o = 0; o < tc.out_ch; ++o)
              bias[o] = static_cast<float>(rng.normal()) * 0.1f;
            const Tensor x =
                Tensor::randn({batch, tc.in_ch, tc.hw, tc.hw}, rng);
            const Tensor gout =
                Tensor::randn({batch, tc.out_ch, tc.hw, tc.hw}, rng);
            conv.zero_grad();
            const Tensor out = conv.forward(x, true);
            const Tensor grad_in = conv.backward(gout);
            const auto ref = tensor::reference::conv_train(
                g, batch, tc.out_ch, conv.params()[0].value->data(),
                bias.data(), relu, x.data(), gout.data());
            auto same = [](const Tensor& t, const std::vector<float>& v) {
              return t.numel() == v.size() &&
                     std::memcmp(t.data(), v.data(),
                                 v.size() * sizeof(float)) == 0;
            };
            EXPECT_TRUE(same(out, ref.out)) << "forward output";
            EXPECT_TRUE(same(grad_in, ref.grad_in)) << "input gradient";
            EXPECT_TRUE(same(*conv.params()[0].grad, ref.weight_grad))
                << "weight gradient";
            EXPECT_TRUE(same(*conv.params()[1].grad, ref.bias_grad))
                << "bias gradient";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace a4nn::nn
