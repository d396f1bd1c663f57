#include "quant/quantized_model.hpp"

#include <stdexcept>
#include <utility>

#include "nn/factory.hpp"
#include "util/frame.hpp"
#include "util/fsutil.hpp"
#include "util/rng.hpp"

namespace a4nn::quant {

namespace {

constexpr const char* kFormat = "a4nn-quant-v2";

bool is_gemm_kind(const std::string& kind) {
  return kind == "conv2d" || kind == "linear";
}

bool spec_relu(const util::Json& spec) {
  return spec.string_or("activation", "none") == "relu";
}

tensor::ConvGeometry conv_geometry(const util::Json& spec,
                                   const tensor::Shape& in) {
  tensor::ConvGeometry g;
  g.in_channels = static_cast<std::size_t>(spec.at("in_channels").as_int());
  g.in_h = in[in.size() - 2];
  g.in_w = in[in.size() - 1];
  g.kernel = static_cast<std::size_t>(spec.at("kernel").as_int());
  g.stride = static_cast<std::size_t>(spec.at("stride").as_int());
  g.pad = static_cast<std::size_t>(spec.at("pad").as_int());
  g.validate();
  return g;
}

/// Quantize a GEMM layer's float weights/bias (as serialized by the layer)
/// into the per-row int8 form the serving kernel consumes. Row = output
/// channel (conv) or output feature (linear): scaling each row by its own
/// dynamic range keeps a few large filters from crushing the resolution of
/// every other one.
QuantizedLayer quantize_gemm_layer(const util::Json& spec,
                                   const util::Json& weights,
                                   float act_scale) {
  const tensor::Tensor w = nn::tensor_from_json(weights.at("weight"));
  const tensor::Tensor b = nn::tensor_from_json(weights.at("bias"));
  if (w.rank() != 2)
    throw std::invalid_argument("quantize: expected a 2-d GEMM weight");

  QuantizedLayer q;
  q.spec = spec;
  q.rows = w.dim(0);
  q.cols = w.dim(1);
  q.act_scale = act_scale;
  q.weight.resize(q.rows * q.cols);
  q.weight_scales.reserve(q.rows);
  for (std::size_t r = 0; r < q.rows; ++r) {
    const std::span<const float> row = w.span().subspan(r * q.cols, q.cols);
    const float scale = tensor::symmetric_scale_s8(tensor::max_abs(row));
    q.weight_scales.push_back(scale);
    tensor::quantize_s8(row, scale, q.weight.data() + r * q.cols);
  }
  q.bias.assign(b.span().begin(), b.span().end());
  if (q.bias.size() != q.rows)
    throw std::invalid_argument("quantize: bias/row count mismatch");
  return q;
}

}  // namespace

QuantizedModel QuantizedModel::quantize(nn::Model& model,
                                        const tensor::Tensor& calibration) {
  if (calibration.rank() != 4 || calibration.dim(0) == 0)
    throw std::invalid_argument(
        "QuantizedModel::quantize: calibration batch must be NCHW with N > 0");

  QuantizedModel out;
  out.input_shape_ = model.input_shape();

  // One calibration pass: each GEMM layer's activation scale is taken from
  // the dynamic range its *input* shows on the calibration batch, then the
  // batch is forwarded through the original float layer so downstream
  // layers calibrate against exactly the activations the float model
  // produces.
  tensor::Tensor x = calibration;
  nn::Sequential& trunk = model.trunk();
  for (std::size_t i = 0; i < trunk.layer_count(); ++i) {
    nn::Layer& layer = trunk.layer(i);
    Stage stage;
    if (is_gemm_kind(layer.kind())) {
      const float act_scale =
          tensor::symmetric_scale_s8(tensor::max_abs(x.span()));
      stage.quant = quantize_gemm_layer(layer.spec(), layer.weights(),
                                        act_scale);
    } else {
      stage.float_spec = layer.spec();
      stage.float_weights = layer.weights();
      util::Rng rng(0);  // placeholder init; real weights loaded below
      stage.float_layer = nn::make_layer(stage.float_spec, rng);
      stage.float_layer->load_weights(stage.float_weights);
    }
    x = layer.forward(x, /*training=*/false);
    out.stages_.push_back(std::move(stage));
  }
  return out;
}

tensor::Tensor QuantizedModel::forward_quant_linear(
    const QuantizedLayer& q, const tensor::Tensor& x) const {
  if (x.rank() != 2 || x.dim(1) != q.cols)
    throw std::invalid_argument(
        "QuantizedModel: linear input shape mismatch, got " +
        tensor::shape_to_string(x.shape()));
  const std::size_t batch = x.dim(0);

  // A = quantized activations (batch x in), one per-tensor scale;
  // B_t = int8 weights (out x in), per-output-feature scales.
  std::vector<std::int8_t> aq(batch * q.cols);
  tensor::quantize_s8(x.span(), q.act_scale, aq.data());

  tensor::Tensor out({batch, q.rows});
  tensor::Epilogue ep;
  ep.bias = tensor::Epilogue::Bias::kPerCol;
  ep.bias_data = q.bias.data();
  ep.relu = spec_relu(q.spec);
  tensor::gemm_s8_a_bt_ex(batch, q.cols, q.rows, aq.data(),
                          std::span<const float>(&q.act_scale, 1),
                          q.weight.data(), q.weight_scales, out.data(), ep);
  return out;
}

tensor::Tensor QuantizedModel::forward_quant_conv(
    const QuantizedLayer& q, const tensor::Tensor& x) const {
  if (x.rank() != 4)
    throw std::invalid_argument("QuantizedModel: conv input must be NCHW");
  const tensor::ConvGeometry g = conv_geometry(q.spec, x.shape());
  const std::size_t patch = g.patch_size();
  if (patch != q.cols)
    throw std::invalid_argument("QuantizedModel: conv patch size mismatch");
  const std::size_t batch = x.dim(0);
  const std::size_t cols = g.out_h() * g.out_w();
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;

  tensor::Tensor out({batch, q.rows, g.out_h(), g.out_w()});
  tensor::Epilogue ep;
  ep.bias = tensor::Epilogue::Bias::kPerRow;
  ep.bias_data = q.bias.data();
  ep.relu = spec_relu(q.spec);

  // Per image: float im2col, quantize the columns once with the calibrated
  // activation scale, transpose to the (n x k) row-major layout the b_t
  // kernel streams, and run the int8 GEMM:
  //   out(oc x cells) = act(dequant(W_q(oc x patch) * cols_q^T) + bias)
  std::vector<float> columns(patch * cols);
  std::vector<std::int8_t> columns_q(patch * cols);
  std::vector<std::int8_t> columns_qt(cols * patch);
  for (std::size_t n = 0; n < batch; ++n) {
    tensor::im2col(g, {x.data() + n * image_size, image_size}, columns);
    tensor::quantize_s8(columns, q.act_scale, columns_q.data());
    for (std::size_t p = 0; p < patch; ++p)
      for (std::size_t c = 0; c < cols; ++c)
        columns_qt[c * patch + p] = columns_q[p * cols + c];
    tensor::gemm_s8_a_bt_ex(q.rows, patch, cols, q.weight.data(),
                            q.weight_scales, columns_qt.data(),
                            std::span<const float>(&q.act_scale, 1),
                            out.data() + n * q.rows * cols, ep);
  }
  return out;
}

tensor::Tensor QuantizedModel::predict(const tensor::Tensor& batch) {
  tensor::Tensor x = batch;
  for (Stage& stage : stages_) {
    if (stage.quant) {
      const std::string kind = stage.quant->spec.at("kind").as_string();
      x = kind == "conv2d" ? forward_quant_conv(*stage.quant, x)
                           : forward_quant_linear(*stage.quant, x);
    } else {
      x = stage.float_layer->forward(x, /*training=*/false);
    }
  }
  return x;
}

std::size_t QuantizedModel::quantized_layer_count() const {
  std::size_t n = 0;
  for (const Stage& s : stages_)
    if (s.quant) ++n;
  return n;
}

std::size_t QuantizedModel::int8_parameters() const {
  std::size_t n = 0;
  for (const Stage& s : stages_)
    if (s.quant) n += s.quant->weight.size();
  return n;
}

util::Json QuantizedModel::to_json() const {
  util::Json j = util::Json::object();
  j["format"] = kFormat;
  util::JsonArray shape;
  for (std::size_t d : input_shape_) shape.emplace_back(d);
  j["input_shape"] = util::Json(std::move(shape));
  util::Json stages = util::Json::array();
  for (const Stage& s : stages_) {
    util::Json st = util::Json::object();
    if (s.quant) {
      const QuantizedLayer& q = *s.quant;
      st["type"] = "int8";
      st["spec"] = q.spec;
      st["rows"] = q.rows;
      st["cols"] = q.cols;
      st["act_scale"] = static_cast<double>(q.act_scale);
      st["weight_scales"] = util::JsonBlob::f32({q.rows}, q.weight_scales);
      st["bias"] = util::JsonBlob::f32({q.rows}, q.bias);
      st["weight"] = util::JsonBlob::i8({q.rows, q.cols}, q.weight);
    } else {
      st["type"] = "float";
      st["spec"] = s.float_spec;
      st["weights"] = s.float_weights;
    }
    stages.push_back(std::move(st));
  }
  j["stages"] = std::move(stages);
  return j;
}

QuantizedModel QuantizedModel::from_json(const util::Json& j) {
  if (j.string_or("format", "") != kFormat)
    throw std::invalid_argument("quant snapshot: unknown format '" +
                                j.string_or("format", "<missing>") + "'");
  QuantizedModel out;
  for (const auto& d : j.at("input_shape").as_array())
    out.input_shape_.push_back(static_cast<std::size_t>(d.as_int()));
  for (const auto& st : j.at("stages").as_array()) {
    Stage stage;
    const std::string type = st.at("type").as_string();
    if (type == "int8") {
      QuantizedLayer q;
      q.spec = st.at("spec");
      q.rows = static_cast<std::size_t>(st.at("rows").as_int());
      q.cols = static_cast<std::size_t>(st.at("cols").as_int());
      q.act_scale = static_cast<float>(st.at("act_scale").as_number());
      q.weight_scales = st.at("weight_scales").as_blob().f32_values();
      q.bias = st.at("bias").as_blob().f32_values();
      q.weight = st.at("weight").as_blob().i8_values();
      if (q.weight.size() != q.rows * q.cols ||
          q.weight_scales.size() != q.rows || q.bias.size() != q.rows)
        throw std::invalid_argument("quant snapshot: stage size mismatch");
      stage.quant = std::move(q);
    } else if (type == "float") {
      stage.float_spec = st.at("spec");
      stage.float_weights = st.at("weights");
      util::Rng rng(0);
      stage.float_layer = nn::make_layer(stage.float_spec, rng);
      stage.float_layer->load_weights(stage.float_weights);
    } else {
      throw std::invalid_argument("quant snapshot: unknown stage type '" +
                                  type + "'");
    }
    out.stages_.push_back(std::move(stage));
  }
  return out;
}

void QuantizedModel::save(const std::filesystem::path& path) const {
  util::write_file(path, util::frame(to_json().encode()));
}

QuantizedModel QuantizedModel::load(const std::filesystem::path& path) {
  const auto content = util::unframe_or_legacy(util::read_file(path));
  return from_json(util::Json::decode(content.payload));
}

double top1_accuracy(const tensor::Tensor& logits,
                     const std::vector<std::size_t>& labels) {
  if (logits.rank() != 2 || logits.dim(0) != labels.size())
    throw std::invalid_argument("top1_accuracy: logits/labels mismatch");
  if (labels.empty()) return 0.0;
  const std::size_t classes = logits.dim(1);
  std::size_t correct = 0;
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const std::span<const float> row =
        logits.span().subspan(n * classes, classes);
    if (tensor::argmax(row) == labels[n]) ++correct;
  }
  return 100.0 * static_cast<double>(correct) /
         static_cast<double>(labels.size());
}

}  // namespace a4nn::quant
