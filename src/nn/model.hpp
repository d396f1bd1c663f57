// A trainable classifier: a Sequential trunk plus training/evaluation
// methods, FLOPs/parameter accounting, and whole-model checkpoints (JSON
// spec + binary weights) that the lineage tracker stores per epoch.
#pragma once

#include <memory>

#include "nn/dataset.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace a4nn::nn {

struct EpochMetrics {
  double loss = 0.0;       // mean loss
  double accuracy = 0.0;   // percentage, [0, 100]
};

class Model {
 public:
  /// Takes ownership of the trunk; `input_shape` is one image (C,H,W).
  Model(std::unique_ptr<Sequential> trunk, Shape input_shape);

  /// One pass over the training set with mini-batch SGD.
  EpochMetrics train_epoch(const Dataset& data, std::size_t batch_size,
                           Optimizer& opt, util::Rng& rng);

  /// Full-dataset evaluation (no parameter updates, eval-mode layers).
  EpochMetrics evaluate(const Dataset& data, std::size_t batch_size = 64);

  /// Forward a batch (inference mode).
  Tensor predict(const Tensor& images);

  std::uint64_t flops_per_image() const;
  std::size_t parameter_count();

  const Shape& input_shape() const { return input_shape_; }
  Sequential& trunk() { return *trunk_; }
  const Sequential& trunk() const { return *trunk_; }

  /// Full checkpoint: {"input_shape", "spec", "weights"}, the weights as
  /// binary tensor leaves (store it with Json::encode).
  util::Json checkpoint() const;
  /// Rebuild a model (architecture + weights) from a checkpoint.
  static Model from_checkpoint(const util::Json& ckpt);

 private:
  std::unique_ptr<Sequential> trunk_;
  Shape input_shape_;
};

}  // namespace a4nn::nn
