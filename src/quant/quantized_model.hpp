// Post-training int8 quantization for the serving path.
//
// A QuantizedModel is built from a trained float model plus one seeded
// calibration batch: Conv2d/Linear weights get symmetric per-output-row
// int8 scales, activations get one per-layer scale calibrated from the
// batch's observed dynamic range, and every other layer (pooling, flatten,
// batch-norm, ...) runs in float exactly as before. Inference multiplies
// int8 x int8 into int32 accumulators — exact arithmetic, so quantized
// predictions are bit-deterministic across runs, batch splits, and thread
// counts by construction (the float kernels need a summation-order
// contract for that; the int8 path gets it for free).
//
// The snapshot stores its int8 weights, scales and biases as binary tensor
// leaves (util::Json::encode) inside the same A4NNF1 integrity frames as
// every other commons artifact, so a torn write or bit flip quarantines
// instead of serving garbage.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "tensor/ops.hpp"
#include "util/json.hpp"

namespace a4nn::quant {

/// One int8-quantized GEMM layer (conv2d or linear).
struct QuantizedLayer {
  util::Json spec;  ///< the float layer's spec() (geometry + fused act)
  std::size_t rows = 0;  ///< out_channels (conv) / out_features (linear)
  std::size_t cols = 0;  ///< patch size (conv) / in_features (linear)
  std::vector<std::int8_t> weight;   ///< (rows x cols) row-major
  std::vector<float> weight_scales;  ///< per-row symmetric scales
  std::vector<float> bias;           ///< kept in float (exact)
  float act_scale = 1.0f;  ///< calibrated input-activation scale
};

/// Hybrid float/int8 inference pipeline over a trained model's trunk.
class QuantizedModel {
 public:
  /// Quantize `model` using `calibration` (a batch at the model's input
  /// shape) to pick activation scales. The calibration forward passes run
  /// in inference mode; the float model is not modified.
  static QuantizedModel quantize(nn::Model& model,
                                 const tensor::Tensor& calibration);

  /// Inference on a batch (N x C x H x W): int8 GEMMs for the quantized
  /// layers, the original float code for everything else.
  tensor::Tensor predict(const tensor::Tensor& batch);

  const tensor::Shape& input_shape() const { return input_shape_; }
  std::size_t stage_count() const { return stages_.size(); }
  /// How many stages run on the int8 kernels.
  std::size_t quantized_layer_count() const;
  /// int8 weight values stored across all quantized layers.
  std::size_t int8_parameters() const;

  util::Json to_json() const;
  static QuantizedModel from_json(const util::Json& j);

  /// A4NNF1-framed snapshot on disk.
  void save(const std::filesystem::path& path) const;
  static QuantizedModel load(const std::filesystem::path& path);

 private:
  struct Stage {
    /// Exactly one of the two is set.
    nn::LayerPtr float_layer;             // with float spec+weights below
    std::optional<QuantizedLayer> quant;  // int8 conv2d / linear
    util::Json float_spec;     // float stage serialization
    util::Json float_weights;  // (unused for quant stages)
  };

  tensor::Tensor forward_quant_linear(const QuantizedLayer& q,
                                      const tensor::Tensor& x) const;
  tensor::Tensor forward_quant_conv(const QuantizedLayer& q,
                                    const tensor::Tensor& x) const;

  tensor::Shape input_shape_;
  std::vector<Stage> stages_;
};

/// Top-1 accuracy (%) of `predict`-style logits against labels: shared by
/// the float/int8 accuracy guard in the serving registry and the tests.
double top1_accuracy(const tensor::Tensor& logits,
                     const std::vector<std::size_t>& labels);

}  // namespace a4nn::quant
