// int8 quantized serving: exactness of the int8 GEMM against an integer
// reference, QuantizedModel bit-determinism / accuracy parity / snapshot
// integrity, and the measured-p99 champion policy with its epsilon
// accuracy guard — the "measure latency, don't model it" serving story.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "lineage/tracker.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "quant/quantized_model.hpp"
#include "serve/registry.hpp"
#include "tensor/ops.hpp"
#include "util/fsutil.hpp"
#include "xfel/dataset.hpp"

namespace a4nn {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// int8 kernel primitives.
// ---------------------------------------------------------------------------

TEST(QuantKernels, SymmetricScaleMapsLimitTo127AndSurvivesZeros) {
  EXPECT_FLOAT_EQ(tensor::symmetric_scale_s8(12.7f), 0.1f);
  // All-zero tensors still get a positive, usable scale.
  EXPECT_FLOAT_EQ(tensor::symmetric_scale_s8(0.0f), 1.0f);
  EXPECT_GT(tensor::symmetric_scale_s8(-3.0f), 0.0f);

  const std::vector<float> xs = {0.0f, -1.5f, 2.5f, -4.0f};
  EXPECT_FLOAT_EQ(tensor::max_abs(xs), 4.0f);
  const std::vector<float> empty;
  EXPECT_FLOAT_EQ(tensor::max_abs(empty), 0.0f);
}

TEST(QuantKernels, QuantizeRoundsToNearestAndClamps) {
  const std::vector<float> xs = {0.0f, 0.26f, -0.26f, 1.0f, -1.0f, 99.0f,
                                 -99.0f};
  std::vector<std::int8_t> q(xs.size());
  tensor::quantize_s8(xs, 0.5f, q.data());
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 1);   // 0.52 rounds to 1
  EXPECT_EQ(q[2], -1);
  EXPECT_EQ(q[3], 2);
  EXPECT_EQ(q[4], -2);
  EXPECT_EQ(q[5], 127);   // clamped, never wraps
  EXPECT_EQ(q[6], -127);  // symmetric clamp: -128 is never produced

  EXPECT_THROW(tensor::quantize_s8(xs, 0.0f, q.data()),
               std::invalid_argument);
  EXPECT_THROW(tensor::quantize_s8(xs, -1.0f, q.data()),
               std::invalid_argument);
}

TEST(QuantKernels, GemmS8MatchesExactIntegerReference) {
  constexpr std::size_t m = 5, k = 7, n = 4;
  std::vector<std::int8_t> a(m * k), b_t(n * k);
  // Deterministic values spanning the full signed range, including the
  // extremes the clamp produces.
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::int8_t>((static_cast<int>(i) * 37 % 255) - 127);
  for (std::size_t i = 0; i < b_t.size(); ++i)
    b_t[i] = static_cast<std::int8_t>((static_cast<int>(i) * 53 % 255) - 127);
  std::vector<float> a_scales(m), bias(n);
  for (std::size_t i = 0; i < m; ++i)
    a_scales[i] = 0.01f + 0.005f * static_cast<float>(i);
  for (std::size_t j = 0; j < n; ++j)
    bias[j] = 0.1f * static_cast<float>(j) - 0.15f;
  const float b_scale = 0.02f;

  // Exact integer reference accumulators (int64: cannot overflow here).
  std::vector<std::int64_t> acc(m * n, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t kk = 0; kk < k; ++kk)
        acc[i * n + j] += static_cast<std::int64_t>(a[i * k + kk]) *
                          static_cast<std::int64_t>(b_t[j * k + kk]);

  // Without an epilogue the dequant is a pure multiply chain — no
  // FP-contraction freedom — so the kernel output is bit-identical to the
  // reference expression: the integer dot product is computed exactly.
  std::vector<float> plain(m * n);
  tensor::gemm_s8_a_bt_ex(m, k, n, a.data(), a_scales, b_t.data(),
                          {&b_scale, 1}, plain.data(), tensor::Epilogue{});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(plain[i * n + j],
                static_cast<float>(acc[i * n + j]) * a_scales[i] * b_scale)
          << "at (" << i << "," << j << ")";

  // With the fused bias + ReLU writeback the compiler may contract the
  // bias add into an FMA, so the comparison is ULP-level rather than
  // bit-level; the ReLU clamp itself must be exact.
  tensor::Epilogue ep;
  ep.bias = tensor::Epilogue::Bias::kPerCol;
  ep.bias_data = bias.data();
  ep.relu = true;
  std::vector<float> c(m * n);
  tensor::gemm_s8_a_bt_ex(m, k, n, a.data(), a_scales, b_t.data(),
                          {&b_scale, 1}, c.data(), ep);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float v = static_cast<float>(acc[i * n + j]) * a_scales[i] * b_scale;
      v += bias[j];
      if (v < 0.0f) v = 0.0f;
      EXPECT_FLOAT_EQ(c[i * n + j], v) << "at (" << i << "," << j << ")";
      if (v == 0.0f) {
        EXPECT_EQ(c[i * n + j], 0.0f);
      }
      EXPECT_GE(c[i * n + j], 0.0f);
    }
  }
}

TEST(QuantKernels, GemmS8ValidatesScalesAndDepth) {
  const std::vector<std::int8_t> a = {1, 2}, b_t = {3, 4};
  const std::vector<float> two_scales = {0.1f, 0.2f};
  const float one = 0.1f, zero = 0.0f;
  std::vector<float> c(1);
  tensor::Epilogue ep;

  // 1x2 * 2x1: A scales must be size 1; two entries is a caller bug.
  EXPECT_THROW(tensor::gemm_s8_a_bt_ex(1, 2, 1, a.data(), two_scales,
                                       b_t.data(), {&one, 1}, c.data(), ep),
               std::invalid_argument);
  EXPECT_THROW(tensor::gemm_s8_a_bt_ex(1, 2, 1, a.data(), {&zero, 1},
                                       b_t.data(), {&one, 1}, c.data(), ep),
               std::invalid_argument);

  // Depths past INT32_MAX / 127^2 would overflow the accumulator.
  const std::size_t too_deep =
      static_cast<std::size_t>(INT32_MAX) / (127 * 127) + 1;
  std::vector<std::int8_t> deep_a(too_deep, 127), deep_b(too_deep, 127);
  std::vector<float> deep_c(1);
  EXPECT_THROW(
      tensor::gemm_s8_a_bt_ex(1, too_deep, 1, deep_a.data(), {&one, 1},
                              deep_b.data(), {&one, 1}, deep_c.data(), ep),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// QuantizedModel on a trained XFEL classifier.
// ---------------------------------------------------------------------------

struct QuantModelTest : ::testing::Test {
  static const xfel::XfelDataset& data() {
    static const xfel::XfelDataset d = [] {
      xfel::XfelDatasetConfig cfg;
      cfg.images_per_class = 50;
      cfg.detector.pixels = 8;
      cfg.intensity = xfel::BeamIntensity::kHigh;
      return xfel::generate_xfel_dataset(cfg);
    }();
    return d;
  }

  /// A briefly trained conv/linear classifier exercising both quantized
  /// kinds plus the fused-ReLU epilogue and a float pooling stage.
  static nn::Model trained_model() {
    util::Rng rng(17);
    auto trunk = std::make_unique<nn::Sequential>();
    auto conv = std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, rng);
    conv->set_activation(nn::Activation::kRelu);
    trunk->append(std::move(conv));
    trunk->append(std::make_unique<nn::MaxPool2d>(2));
    trunk->append(std::make_unique<nn::Flatten>());
    trunk->append(std::make_unique<nn::Linear>(
        4 * 4 * 4, data().train.num_classes(), rng));
    nn::Model model(std::move(trunk), {1, 8, 8});
    nn::Sgd opt(0.05);
    util::Rng train_rng(23);
    for (int epoch = 0; epoch < 4; ++epoch)
      model.train_epoch(data().train, 8, opt, train_rng);
    return model;
  }

  static nn::Dataset::Batch head(const nn::Dataset& d, std::size_t count) {
    std::vector<std::size_t> idx(std::min(count, d.size()));
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    return d.gather(idx);
  }

  static std::vector<std::size_t> as_size_t(
      std::span<const std::int64_t> labels) {
    return {labels.begin(), labels.end()};
  }
};

TEST_F(QuantModelTest, Int8AccuracyStaysWithinEpsilonOfFloat) {
  nn::Model model = trained_model();
  const tensor::Tensor calibration = head(data().train, 32).images;
  quant::QuantizedModel qm = quant::QuantizedModel::quantize(model, calibration);

  EXPECT_EQ(qm.quantized_layer_count(), 2u);
  EXPECT_EQ(qm.int8_parameters(),
            4 * 1 * 3 * 3 + 4 * 4 * 4 * data().train.num_classes());

  const double float_acc = model.evaluate(data().validation).accuracy;
  const nn::Dataset::Batch val = head(data().validation,
                                      data().validation.size());
  const double int8_acc =
      quant::top1_accuracy(qm.predict(val.images), as_size_t(val.labels));
  // The epsilon the serving registry enforces by default: int8 may cost at
  // most half a point of accuracy against float on the evaluation set.
  EXPECT_LE(std::abs(float_acc - int8_acc), 0.5)
      << "float " << float_acc << "% vs int8 " << int8_acc << "%";
}

TEST_F(QuantModelTest, PredictionsAreBitDeterministicAcrossBatchSplits) {
  nn::Model model = trained_model();
  const tensor::Tensor calibration = head(data().train, 32).images;
  quant::QuantizedModel qm = quant::QuantizedModel::quantize(model, calibration);

  const nn::Dataset& val = data().validation;
  ASSERT_GE(val.size(), 6u);
  const tensor::Tensor whole = head(val, 6).images;
  const tensor::Tensor logits = qm.predict(whole);

  // The same six images forwarded as 4 + 2 must reproduce every float bit:
  // the int32 accumulator admits no summation-order drift.
  std::vector<std::size_t> first = {0, 1, 2, 3}, second = {4, 5};
  const tensor::Tensor l1 = qm.predict(val.gather(first).images);
  const tensor::Tensor l2 = qm.predict(val.gather(second).images);
  const std::size_t classes = logits.numel() / 6;
  for (std::size_t i = 0; i < l1.numel(); ++i)
    EXPECT_EQ(logits.data()[i], l1.data()[i]) << "row-split bit mismatch";
  for (std::size_t i = 0; i < l2.numel(); ++i)
    EXPECT_EQ(logits.data()[4 * classes + i], l2.data()[i]);

  // A second quantization of the same model and calibration batch is the
  // same function, bit for bit.
  quant::QuantizedModel again =
      quant::QuantizedModel::quantize(model, calibration);
  const tensor::Tensor replay = again.predict(whole);
  for (std::size_t i = 0; i < logits.numel(); ++i)
    EXPECT_EQ(logits.data()[i], replay.data()[i]);
}

TEST_F(QuantModelTest, SnapshotRoundTripsExactlyAndRejectsCorruption) {
  nn::Model model = trained_model();
  const tensor::Tensor calibration = head(data().train, 32).images;
  quant::QuantizedModel qm = quant::QuantizedModel::quantize(model, calibration);

  const fs::path dir = util::make_temp_dir("a4nn_quant_snap");
  const fs::path path = dir / "champion.quant.json";
  qm.save(path);

  quant::QuantizedModel loaded = quant::QuantizedModel::load(path);
  EXPECT_EQ(loaded.to_json().encode(), qm.to_json().encode());
  EXPECT_EQ(loaded.quantized_layer_count(), qm.quantized_layer_count());

  const tensor::Tensor batch = head(data().validation, 5).images;
  const tensor::Tensor expect = qm.predict(batch);
  const tensor::Tensor got = loaded.predict(batch);
  for (std::size_t i = 0; i < expect.numel(); ++i)
    EXPECT_EQ(expect.data()[i], got.data()[i]);

  // A flipped bit inside the A4NNF1 frame must throw, never load quietly.
  std::string bytes = util::read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x08);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(quant::QuantizedModel::load(path), std::exception);

  fs::remove_all(dir);
}

TEST_F(QuantModelTest, SnapshotRoundTripIsBitExactForSpecialValues) {
  nn::Model model = trained_model();
  const quant::QuantizedModel qm =
      quant::QuantizedModel::quantize(model, head(data().train, 8).images);

  // Plant values a decimal round trip loses (-0.0, denormals, +-inf, a NaN
  // payload) in the float tensors of every int8 stage, and the full
  // -128..127 range in its int8 weights.
  std::uint32_t nan_bits = 0x7fc0cafeu;
  float nan_payload;
  std::memcpy(&nan_payload, &nan_bits, sizeof nan_payload);
  const float specials[] = {-0.0f, std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            nan_payload};
  util::Json doc = qm.to_json();
  std::size_t planted = 0;
  for (util::Json& st : doc["stages"].as_array()) {
    if (st.at("type").as_string() != "int8") continue;
    const auto rows = static_cast<std::size_t>(st.at("rows").as_int());
    const auto cols = static_cast<std::size_t>(st.at("cols").as_int());
    std::vector<float> f(rows);
    for (std::size_t i = 0; i < rows; ++i) f[i] = specials[(i + planted) % 5];
    std::vector<std::int8_t> w(rows * cols);
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = static_cast<std::int8_t>(static_cast<int>(i * 37 % 256) - 128);
    st["bias"] = util::JsonBlob::f32({rows}, f);
    st["weight_scales"] = util::JsonBlob::f32({rows}, f);
    st["weight"] = util::JsonBlob::i8({rows, cols}, w);
    ++planted;
  }
  ASSERT_EQ(planted, 2u);

  const fs::path dir = util::make_temp_dir("a4nn_quant_special");
  quant::QuantizedModel::from_json(doc).save(dir / "special.quant");
  const util::Json back =
      quant::QuantizedModel::load(dir / "special.quant").to_json();
  const auto& want = doc.at("stages").as_array();
  const auto& got = back.at("stages").as_array();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].at("type").as_string() != "int8") continue;
    for (const char* key : {"bias", "weight_scales", "weight"}) {
      const std::string& a = want[i].at(key).as_blob().bytes;
      const std::string& b = got[i].at(key).as_blob().bytes;
      ASSERT_EQ(a.size(), b.size()) << "stage " << i << " " << key;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0)
          << "stage " << i << " " << key;
    }
  }
  EXPECT_EQ(back.encode(), doc.encode());
  fs::remove_all(dir);
}

TEST(QuantModel, Top1AccuracyScoresLogitsAgainstLabels) {
  // 3 samples x 2 classes; rows argmax to 1, 0, 1.
  tensor::Tensor logits({3, 2});
  const float values[] = {0.1f, 0.9f, 2.0f, -1.0f, -3.0f, -2.0f};
  std::copy(std::begin(values), std::end(values), logits.data());
  EXPECT_DOUBLE_EQ(quant::top1_accuracy(logits, {1, 0, 1}), 100.0);
  EXPECT_DOUBLE_EQ(quant::top1_accuracy(logits, {0, 0, 1}),
                   100.0 * 2.0 / 3.0);
  EXPECT_THROW(quant::top1_accuracy(logits, {1, 0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// measured-p99 champion policy: probe, don't model.
// ---------------------------------------------------------------------------

constexpr std::size_t kClasses = 3;

nn::Model tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  auto trunk = std::make_unique<nn::Sequential>();
  trunk->append(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, rng));
  trunk->append(std::make_unique<nn::ReLU>());
  trunk->append(std::make_unique<nn::MaxPool2d>(2));
  trunk->append(std::make_unique<nn::Flatten>());
  trunk->append(std::make_unique<nn::Linear>(4 * 4 * 4, kClasses, rng));
  return nn::Model(std::move(trunk), {1, 8, 8});
}

struct MeasuredP99Fixture : ::testing::Test {
  void SetUp() override {
    root = util::make_temp_dir("a4nn_quant_serve");
    tracker = std::make_unique<lineage::LineageTracker>(
        lineage::TrackerConfig{root, 1, /*durable=*/false});
    util::Json cfg = util::Json::object();
    cfg["experiment"] = "measured-p99-test";
    tracker->record_search_config(cfg);
  }
  void TearDown() override { fs::remove_all(root); }

  void publish(int id, double fitness, std::uint64_t flops,
               std::uint64_t seed) {
    nn::Model model = tiny_model(seed);
    tracker->record_model_epoch(id, 1, model);
    util::Rng rng(seed);
    nas::EvaluationRecord r;
    r.genome = nas::random_genome(3, 4, rng);
    r.model_id = id;
    r.generation = 0;
    r.fitness = fitness;
    r.measured_fitness = fitness;
    r.flops = flops;
    r.epochs_trained = 1;
    r.max_epochs = 25;
    tracker->record_evaluation(r);
  }

  /// measured-p99 config whose probe "measures" the scripted milliseconds,
  /// in hook-call order (candidates probe in model-id order; with
  /// quantization, each candidate probes float first, int8 second).
  serve::RegistryConfig measured_config(std::vector<double> script) {
    serve::RegistryConfig cfg;
    cfg.commons_root = root;
    cfg.policy = serve::ChampionPolicy::kMeasuredP99;
    cfg.probe.batch = 1;
    cfg.probe.warmup = 0;
    cfg.probe.repeats = 1;
    auto plan = std::make_shared<std::vector<double>>(std::move(script));
    auto cursor = std::make_shared<std::size_t>(0);
    cfg.probe_hook = [plan, cursor](const std::function<void()>& pass) {
      pass();  // still run the forward: shapes and kernels stay exercised
      return plan->at((*cursor)++);
    };
    cfg.eval_data = [](const tensor::Shape& shape, std::size_t classes) {
      nn::Dataset d(shape.at(0), shape.at(1), shape.at(2));
      util::Rng rng(99);
      std::vector<float> img(tensor::shape_numel(shape));
      for (std::size_t i = 0; i < 24; ++i) {
        for (auto& v : img) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        d.add_sample(img, static_cast<std::int64_t>(i % classes));
      }
      return d;
    };
    return cfg;
  }

  fs::path root;
  std::unique_ptr<lineage::LineageTracker> tracker;
};

TEST_F(MeasuredP99Fixture, PolicyNameRoundTripsAndQuantizeNeedsEvalData) {
  EXPECT_EQ(serve::champion_policy_from_name("measured-p99"),
            serve::ChampionPolicy::kMeasuredP99);
  EXPECT_STREQ(
      serve::champion_policy_name(serve::ChampionPolicy::kMeasuredP99),
      "measured-p99");

  serve::RegistryConfig bad;
  bad.commons_root = root;
  bad.policy = serve::ChampionPolicy::kMeasuredP99;
  bad.quantize = true;  // but no eval_data: misconfiguration, not a crash
  EXPECT_THROW(serve::ModelRegistry{bad}, std::invalid_argument);
}

TEST_F(MeasuredP99Fixture, SloSatisfiersOutrankFasterButLessFitModels) {
  // All three are Pareto-front members (fitness and FLOPs both increase).
  publish(0, 90.0, 2000, 11);
  publish(1, 95.0, 8000, 12);
  publish(2, 85.0, 1000, 13);

  // Probed in model-id order: 0 -> 5ms, 1 -> 12ms, 2 -> 3ms. Under a 6ms
  // SLO the most accurate *compliant* model wins — model 0, not the
  // higher-fitness SLO violator 1, and not the fastest model 2.
  serve::RegistryConfig cfg = measured_config({5.0, 12.0, 3.0});
  cfg.slo_ms = 6.0;
  serve::ModelRegistry registry(cfg);
  EXPECT_TRUE(registry.refresh());
  EXPECT_EQ(registry.active()->info.model_id, 0);
  EXPECT_DOUBLE_EQ(registry.active()->info.p99_ms, 5.0);
  EXPECT_FALSE(registry.active()->info.quantized);

  // When every candidate misses the SLO, least-bad latency wins.
  serve::RegistryConfig strict = measured_config({5.0, 12.0, 3.0});
  strict.slo_ms = 1.0;
  serve::ModelRegistry least_bad(strict);
  EXPECT_TRUE(least_bad.refresh());
  EXPECT_EQ(least_bad.active()->info.model_id, 2);
  EXPECT_DOUBLE_EQ(least_bad.active()->info.p99_ms, 3.0);
}

TEST_F(MeasuredP99Fixture, Int8ServedOnlyWhenMeasuredFaster) {
  publish(0, 90.0, 2000, 11);

  // float 10ms, int8 4ms: int8 is accurate (epsilon wide open) AND faster,
  // so the quantized variant is published; a re-refresh measuring the same
  // champion/variant does not republish.
  serve::RegistryConfig cfg = measured_config({10.0, 4.0, 10.0, 4.0});
  cfg.quantize = true;
  cfg.epsilon_pct = 100.0;
  util::metrics::Registry metrics;
  cfg.metrics = &metrics;
  serve::ModelRegistry registry(cfg);
  EXPECT_TRUE(registry.refresh());
  auto generation = registry.active();
  EXPECT_TRUE(generation->info.quantized);
  EXPECT_DOUBLE_EQ(generation->info.p99_ms, 4.0);
  ASSERT_TRUE(generation->quantized.has_value());
  EXPECT_DOUBLE_EQ(metrics.counter("quant.quantizations").value(), 1.0);
  EXPECT_FALSE(registry.refresh());  // same champion, same variant

  // The served int8 pipeline is exactly quantize(model, calibration) of
  // the published float model: rebuild it and compare every output bit.
  nn::Dataset eval = cfg.eval_data(generation->input_shape, kClasses);
  std::vector<std::size_t> idx(std::min<std::size_t>(cfg.calibration,
                                                     eval.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  quant::QuantizedModel rebuilt = quant::QuantizedModel::quantize(
      generation->model, eval.gather(idx).images);
  std::vector<std::size_t> probe_idx = {0, 1, 2, 3};
  const tensor::Tensor batch = eval.gather(probe_idx).images;
  const tensor::Tensor served = generation->predict(batch);
  const tensor::Tensor local = rebuilt.predict(batch);
  ASSERT_EQ(served.numel(), local.numel());
  for (std::size_t i = 0; i < served.numel(); ++i)
    EXPECT_EQ(served.data()[i], local.data()[i]);

  // float 4ms, int8 10ms: quantization that does not pay for itself is
  // not served, however accurate.
  serve::RegistryConfig slower = measured_config({4.0, 10.0});
  slower.quantize = true;
  slower.epsilon_pct = 100.0;
  serve::ModelRegistry float_wins(slower);
  EXPECT_TRUE(float_wins.refresh());
  EXPECT_FALSE(float_wins.active()->info.quantized);
  EXPECT_DOUBLE_EQ(float_wins.active()->info.p99_ms, 4.0);
  EXPECT_FALSE(float_wins.active()->quantized.has_value());
}

TEST_F(MeasuredP99Fixture, EpsilonGuardNeverServesInaccurateInt8) {
  publish(0, 90.0, 2000, 11);

  // An impossible epsilon makes every int8 variant an accuracy violation.
  // The guard must fall back to float WITHOUT probing int8 at all — hence
  // a single scripted measurement; plan->at() throws on a second call.
  serve::RegistryConfig cfg = measured_config({7.0});
  cfg.quantize = true;
  cfg.epsilon_pct = -1000.0;
  util::metrics::Registry metrics;
  cfg.metrics = &metrics;
  serve::ModelRegistry registry(cfg);
  EXPECT_TRUE(registry.refresh());
  EXPECT_FALSE(registry.active()->info.quantized);
  EXPECT_FALSE(registry.active()->quantized.has_value());
  EXPECT_DOUBLE_EQ(registry.active()->info.p99_ms, 7.0);
  // The quantization itself DID run (that is where the drop is measured).
  EXPECT_DOUBLE_EQ(metrics.counter("quant.quantizations").value(), 1.0);
}

}  // namespace
}  // namespace a4nn
