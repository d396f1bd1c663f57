// Reference convolution loops for the byte-identity tests: the per-element
// im2col/col2im loops and the one-GEMM-per-image training convolution the
// optimized kernels and Conv2d must reproduce bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace a4nn::tensor::reference {

inline void im2col(const ConvGeometry& g, std::span<const float> image,
                   std::span<float> columns) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), cols = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image.data() + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                static_cast<std::ptrdiff_t>(g.pad);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            const bool inside =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h) &&
                ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w);
            columns[row * cols + oy * ow + ox] =
                inside ? plane[static_cast<std::size_t>(iy) * g.in_w +
                               static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

inline void col2im(const ConvGeometry& g, std::span<const float> columns,
                   std::span<float> image_grad) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), cols = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image_grad.data() + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                static_cast<std::ptrdiff_t>(g.pad);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h) ||
                ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
              continue;
            plane[static_cast<std::size_t>(iy) * g.in_w +
                  static_cast<std::size_t>(ix)] +=
                columns[row * cols + oy * ow + ox];
          }
        }
      }
    }
  }
}

/// Training convolution one image at a time, the way Conv2d computed it
/// before its input-gradient GEMM was folded over the batch.
struct ConvTrainResult {
  std::vector<float> out, grad_in, weight_grad, bias_grad;
};

inline ConvTrainResult conv_train(const ConvGeometry& g, std::size_t batch,
                                  std::size_t oc, const float* weight,
                                  const float* bias, bool relu,
                                  const float* x, const float* grad_out) {
  const std::size_t patch = g.patch_size();
  const std::size_t cols = g.out_h() * g.out_w();
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
  ConvTrainResult r;
  r.out.resize(batch * oc * cols);
  r.grad_in.assign(batch * image_size, 0.0f);
  r.weight_grad.assign(oc * patch, 0.0f);
  r.bias_grad.assign(oc, 0.0f);
  std::vector<float> columns(batch * patch * cols);
  Epilogue ep;
  ep.bias = Epilogue::Bias::kPerRow;
  ep.bias_data = bias;
  ep.relu = relu;
  for (std::size_t n = 0; n < batch; ++n) {
    float* col = columns.data() + n * patch * cols;
    reference::im2col(g, {x + n * image_size, image_size},
                      {col, patch * cols});
    gemm_ex(oc, patch, cols, weight, col, r.out.data() + n * oc * cols, ep);
  }
  std::vector<float> gout(grad_out, grad_out + batch * oc * cols);
  if (relu)
    for (std::size_t i = 0; i < gout.size(); ++i)
      if (!(r.out[i] > 0.0f)) gout[i] = 0.0f;
  const std::size_t chunks = intra_op_chunks(batch);
  std::vector<float> dcol(patch * cols);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<float> dw(oc * patch, 0.0f), db(oc, 0.0f);
    const ChunkRange range = intra_op_chunk_range(batch, c);
    for (std::size_t n = range.begin; n < range.end; ++n) {
      const float* go = gout.data() + n * oc * cols;
      gemm_a_bt_acc(oc, cols, patch, go, columns.data() + n * patch * cols,
                    dw.data());
      for (std::size_t o = 0; o < oc; ++o) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < cols; ++i) acc += go[o * cols + i];
        db[o] += acc;
      }
      gemm_at_b(patch, oc, cols, weight, go, dcol.data());
      reference::col2im(g, dcol,
                        {r.grad_in.data() + n * image_size, image_size});
    }
    axpy(1.0f, dw, r.weight_grad);
    axpy(1.0f, db, r.bias_grad);
  }
  return r;
}

}  // namespace a4nn::tensor::reference
