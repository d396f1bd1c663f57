// Extended-space layers: SeparableConv2d, AvgPool2d, Identity, and
// PhaseBlock with per-node operations.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/factory.hpp"
#include "nn/layers_extra.hpp"
#include "nn/phase_block.hpp"

namespace a4nn::nn {
namespace {

double dot(const Tensor& a, const Tensor& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i)
    acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

void check_input_gradient(Layer& layer, Tensor x, double tol = 3e-2) {
  util::Rng rng(7);
  Tensor probe = layer.forward(x, true);
  Tensor w = Tensor::randn(probe.shape(), rng);
  layer.forward(x, true);
  const Tensor analytic = layer.backward(w);
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < x.numel();
       i += std::max<std::size_t>(1, x.numel() / 20)) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric =
        (dot(layer.forward(xp, true), w) - dot(layer.forward(xm, true), w)) /
        (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::fabs(numeric)));
  }
}

void check_param_gradients(Layer& layer, Tensor x, double tol = 3e-2) {
  util::Rng rng(8);
  Tensor probe = layer.forward(x, true);
  Tensor w = Tensor::randn(probe.shape(), rng);
  layer.zero_grad();
  layer.forward(x, true);
  layer.backward(w);
  for (auto& slot : layer.params()) {
    Tensor analytic = *slot.grad;
    Tensor& value = *slot.value;
    for (std::size_t i = 0; i < value.numel();
         i += std::max<std::size_t>(1, value.numel() / 10)) {
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

TEST(SeparableConv2d, ShapesAndCheaperThanDense) {
  util::Rng rng(1);
  SeparableConv2d sep(8, 8, 3, 1, rng);
  EXPECT_EQ(sep.output_shape({8, 10, 10}), (Shape{8, 10, 10}));
  Conv2d dense(8, 8, 3, 1, 1, rng);
  EXPECT_LT(sep.flops({8, 10, 10}), dense.flops({8, 10, 10}));
}

TEST(SeparableConv2d, GradientsMatchFiniteDifferences) {
  util::Rng rng(2);
  SeparableConv2d sep(2, 3, 3, 1, rng);
  check_input_gradient(sep, Tensor::randn({2, 2, 5, 5}, rng));
  check_param_gradients(sep, Tensor::randn({2, 2, 5, 5}, rng));
}

TEST(SeparableConv2d, FiveByFiveKernel) {
  util::Rng rng(3);
  SeparableConv2d sep(2, 2, 5, 2, rng);
  EXPECT_EQ(sep.output_shape({2, 8, 8}), (Shape{2, 8, 8}));
  check_input_gradient(sep, Tensor::randn({1, 2, 8, 8}, rng));
}

TEST(SeparableConv2d, SerializationRoundTrip) {
  util::Rng rng(4);
  SeparableConv2d sep(2, 3, 3, 1, rng);
  Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
  const Tensor y = sep.forward(x, false);
  util::Rng rng2(99);
  auto rebuilt = make_layer(sep.spec(), rng2);
  rebuilt->load_weights(
      util::Json::decode(sep.weights().encode()));
  const Tensor y2 = rebuilt->forward(x, false);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], y2[i]);
  SeparableConv2d other(2, 4, 3, 1, rng);
  EXPECT_THROW(sep.load_weights(other.weights()), std::invalid_argument);
}

TEST(AvgPool2d, ForwardAveragesAndBackwardSpreads) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 6});
  const Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  Tensor g({1, 1, 1, 1}, {4.0f});
  const Tensor gx = pool.backward(g);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gx[i], 1.0f);
  EXPECT_EQ(pool.output_shape({3, 8, 8}), (Shape{3, 4, 4}));
  EXPECT_THROW(AvgPool2d(0), std::invalid_argument);
}

TEST(AvgPool2d, GradientsMatchFiniteDifferences) {
  util::Rng rng(5);
  AvgPool2d pool(2);
  check_input_gradient(pool, Tensor::randn({2, 2, 4, 4}, rng));
}

TEST(Identity, PassThrough) {
  Identity id;
  util::Rng rng(6);
  Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor y = id.forward(x, true);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
  EXPECT_EQ(id.flops({2, 3}), 0u);
  EXPECT_EQ(id.output_shape({5}), (Shape{5}));
}

TEST(NodeOps, NamesAndCodes) {
  EXPECT_STREQ(node_op_name(NodeOp::kConv3x3), "conv3x3");
  EXPECT_STREQ(node_op_name(NodeOp::kSepConv3x3), "sepconv3x3");
  EXPECT_STREQ(node_op_name(NodeOp::kConv1x1), "conv1x1");
  EXPECT_STREQ(node_op_name(NodeOp::kSepConv5x5), "sepconv5x5");
  PhaseSpec spec;
  spec.nodes = 2;
  spec.bits = {true};
  EXPECT_EQ(spec.op_of(0), NodeOp::kConv3x3);  // macro default
  spec.node_ops = {NodeOp::kConv1x1, NodeOp::kSepConv5x5};
  EXPECT_EQ(spec.op_of(1), NodeOp::kSepConv5x5);
}

TEST(PhaseBlockOps, MixedOperationsForwardBackward) {
  util::Rng rng(9);
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, true, false};  // 0->1, 0->2
  spec.skip = true;
  spec.node_ops = {NodeOp::kConv1x1, NodeOp::kSepConv3x3, NodeOp::kConv3x3};
  PhaseBlock block(spec, 2, rng);
  Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  const Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  check_input_gradient(block, x, 6e-2);
}

TEST(PhaseBlockOps, OpChoiceChangesFlops) {
  util::Rng rng(10);
  PhaseSpec cheap;
  cheap.nodes = 2;
  cheap.bits = {true};
  cheap.node_ops = {NodeOp::kConv1x1, NodeOp::kConv1x1};
  PhaseSpec pricey = cheap;
  pricey.node_ops = {NodeOp::kConv3x3, NodeOp::kSepConv5x5};
  PhaseBlock a(cheap, 8, rng), b(pricey, 8, rng);
  EXPECT_LT(a.flops({8, 8, 8}), b.flops({8, 8, 8}));
}

TEST(PhaseBlockOps, SpecRoundTripPreservesOps) {
  util::Rng rng(11);
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, false, true};
  spec.node_ops = {NodeOp::kSepConv5x5, NodeOp::kConv1x1, NodeOp::kConv3x3};
  PhaseBlock block(spec, 2, rng);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  block.forward(x, true);
  const Tensor y = block.forward(x, false);

  util::Rng rng2(77);
  auto rebuilt = make_layer(block.spec(), rng2);
  rebuilt->load_weights(util::Json::decode(block.weights().encode()));
  const Tensor y2 = rebuilt->forward(x, false);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], y2[i]);
}

TEST(PhaseBlockOps, WrongOpCountRejected) {
  util::Rng rng(12);
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, false, true};
  spec.node_ops = {NodeOp::kConv3x3};  // 1 != 3
  EXPECT_THROW(PhaseBlock(spec, 2, rng), std::invalid_argument);
}

}  // namespace
}  // namespace a4nn::nn
