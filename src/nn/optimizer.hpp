// First-order optimizers operating on ParamSlot views.
#pragma once

#include <unordered_map>

#include "nn/layer.hpp"

namespace a4nn::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Apply one update step to every slot, then the caller zeroes grads.
  virtual void step(std::vector<ParamSlot>& slots) = 0;
  virtual std::string kind() const = 0;
};

/// SGD with classical momentum and decoupled L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(double lr, double momentum = 0.9, double weight_decay = 0.0);

  void step(std::vector<ParamSlot>& slots) override;
  std::string kind() const override { return "sgd"; }

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

  /// Momentum buffers, one binary f32 leaf per slot in slot order. Part of
  /// the training-state checkpoint that makes mid-run resume bit-exact.
  util::Json state_json(const std::vector<ParamSlot>& slots) const;
  /// Restore buffers captured by state_json from the same architecture.
  void load_state(const std::vector<ParamSlot>& slots, const util::Json& j);

 private:
  double lr_, momentum_, weight_decay_;
  // Velocity buffers keyed by parameter tensor address; layers own their
  // tensors for the whole training run so addresses are stable.
  std::unordered_map<const Tensor*, std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8, double weight_decay = 0.0);

  void step(std::vector<ParamSlot>& slots) override;
  std::string kind() const override { return "adam"; }

 private:
  struct State {
    std::vector<float> m, v;
  };
  double lr_, beta1_, beta2_, eps_, weight_decay_;
  std::uint64_t t_ = 0;
  std::unordered_map<const Tensor*, State> state_;
};

}  // namespace a4nn::nn
