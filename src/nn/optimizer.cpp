#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace a4nn::nn {

Sgd::Sgd(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("Sgd: lr must be > 0");
  if (momentum < 0.0 || momentum >= 1.0)
    throw std::invalid_argument("Sgd: momentum must be in [0, 1)");
}

void Sgd::step(std::vector<ParamSlot>& slots) {
  for (auto& slot : slots) {
    Tensor& w = *slot.value;
    const Tensor& g = *slot.grad;
    auto& vel = velocity_[slot.value];
    if (vel.size() != w.numel()) vel.assign(w.numel(), 0.0f);
    for (std::size_t i = 0; i < w.numel(); ++i) {
      const float grad =
          g[i] + static_cast<float>(weight_decay_) * w[i];
      vel[i] = static_cast<float>(momentum_) * vel[i] + grad;
      w[i] -= static_cast<float>(lr_) * vel[i];
    }
  }
}

util::Json Sgd::state_json(const std::vector<ParamSlot>& slots) const {
  util::Json velocities = util::Json::array();
  for (const auto& slot : slots) {
    const auto it = velocity_.find(slot.value);
    std::span<const float> v;
    if (it != velocity_.end()) v = it->second;
    velocities.push_back(util::JsonBlob::f32({v.size()}, v));
  }
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["velocity"] = std::move(velocities);
  return j;
}

void Sgd::load_state(const std::vector<ParamSlot>& slots,
                     const util::Json& j) {
  const auto& velocities = j.at("velocity").as_array();
  if (velocities.size() != slots.size())
    throw std::invalid_argument("Sgd::load_state: slot count mismatch");
  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::vector<float> vel = velocities[s].as_blob().f32_values();
    if (vel.empty()) continue;  // slot never stepped before the checkpoint
    if (vel.size() != slots[s].value->numel())
      throw std::invalid_argument("Sgd::load_state: velocity size mismatch");
    velocity_[slots[s].value] = std::move(vel);
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps,
           double weight_decay)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("Adam: lr must be > 0");
}

void Adam::step(std::vector<ParamSlot>& slots) {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (auto& slot : slots) {
    Tensor& w = *slot.value;
    const Tensor& g = *slot.grad;
    auto& st = state_[slot.value];
    if (st.m.size() != w.numel()) {
      st.m.assign(w.numel(), 0.0f);
      st.v.assign(w.numel(), 0.0f);
    }
    for (std::size_t i = 0; i < w.numel(); ++i) {
      const double grad = g[i] + weight_decay_ * w[i];
      st.m[i] = static_cast<float>(beta1_ * st.m[i] + (1.0 - beta1_) * grad);
      st.v[i] =
          static_cast<float>(beta2_ * st.v[i] + (1.0 - beta2_) * grad * grad);
      const double mhat = st.m[i] / bc1;
      const double vhat = st.v[i] / bc2;
      w[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace a4nn::nn
