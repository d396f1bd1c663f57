// Property-style parameterized suites (TEST_P) on cross-cutting
// invariants: convolution gradient correctness over geometry sweeps,
// scheduler work-conservation bounds over GPU counts, dataset invariants
// over beam intensities, genome round-trips over search-space geometries,
// and engine safety over noise levels.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "nas/operators.hpp"
#include "nas/search_space.hpp"
#include "nn/layers.hpp"
#include "penguin/engine.hpp"
#include "sched/resource_manager.hpp"
#include "xfel/dataset.hpp"

namespace a4nn {
namespace {

// ------------------------------------------------------- conv geometries

struct ConvCase {
  std::size_t in_channels, out_channels, kernel, stride, pad, size;
};

class ConvGeometrySweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometrySweep, BackwardMatchesFiniteDifference) {
  const ConvCase c = GetParam();
  util::Rng rng(77);
  nn::Conv2d conv(c.in_channels, c.out_channels, c.kernel, c.stride, c.pad,
                  rng);
  nn::Tensor x = nn::Tensor::randn({2, c.in_channels, c.size, c.size}, rng);
  nn::Tensor w = nn::Tensor::randn(
      nn::Shape{2, c.out_channels,
                (c.size + 2 * c.pad - c.kernel) / c.stride + 1,
                (c.size + 2 * c.pad - c.kernel) / c.stride + 1},
      rng);

  conv.forward(x, true);
  const nn::Tensor analytic = conv.backward(w);
  auto loss = [&](const nn::Tensor& input) {
    const nn::Tensor out = conv.forward(input, true);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i)
      acc += static_cast<double>(out[i]) * w[i];
    return acc;
  };
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < x.numel(); i += std::max<std::size_t>(1, x.numel() / 16)) {
    nn::Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss(xp) - loss(xm)) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, 0.03 * std::max(1.0, std::fabs(numeric)));
  }
}

TEST_P(ConvGeometrySweep, FlopsMatchOutputGeometry) {
  const ConvCase c = GetParam();
  util::Rng rng(78);
  nn::Conv2d conv(c.in_channels, c.out_channels, c.kernel, c.stride, c.pad,
                  rng);
  const nn::Shape out =
      conv.output_shape({c.in_channels, c.size, c.size});
  const std::uint64_t expected =
      out[1] * out[2] * c.out_channels *
      (2 * c.in_channels * c.kernel * c.kernel + 1);
  EXPECT_EQ(conv.flops({c.in_channels, c.size, c.size}), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometrySweep,
    ::testing::Values(ConvCase{1, 2, 3, 1, 1, 6}, ConvCase{2, 3, 3, 2, 1, 7},
                      ConvCase{3, 1, 1, 1, 0, 5}, ConvCase{2, 2, 5, 1, 2, 8},
                      ConvCase{1, 4, 3, 2, 0, 9}));

// --------------------------------------------------------- scheduler law

class SchedulerSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchedulerSweep, MakespanRespectsWorkConservationBounds) {
  const std::size_t gpus = GetParam();
  sched::ClusterConfig cfg;
  cfg.num_gpus = gpus;
  cfg.parallel_execution = false;
  sched::ResourceManager rm(cfg);

  util::Rng rng(gpus * 13 + 1);
  std::vector<sched::Job> jobs;
  double total = 0.0, longest = 0.0;
  for (int i = 0; i < 23; ++i) {
    const double d = rng.uniform(1.0, 40.0);
    total += d;
    longest = std::max(longest, d);
    jobs.push_back(sched::Job{[d] { return d; }});
  }
  const auto schedule = rm.run_generation(std::move(jobs));
  // Work conservation: makespan within [max(total/gpus, longest), total].
  EXPECT_GE(schedule.makespan_end + 1e-9,
            std::max(total / static_cast<double>(gpus), longest));
  EXPECT_LE(schedule.makespan_end, total + 1e-9);
  // Busy + idle accounts for every device-second under the barrier.
  EXPECT_NEAR(schedule.makespan_end * static_cast<double>(gpus),
              total + schedule.idle_seconds, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, SchedulerSweep,
                         ::testing::Values(1, 2, 3, 4, 7));

// ----------------------------------------------------- dataset invariants

class IntensitySweep
    : public ::testing::TestWithParam<xfel::BeamIntensity> {};

TEST_P(IntensitySweep, DatasetWellFormedAtEveryIntensity) {
  xfel::XfelDatasetConfig cfg;
  cfg.intensity = GetParam();
  cfg.images_per_class = 25;
  cfg.detector.pixels = 8;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(cfg);
  EXPECT_EQ(data.train.size() + data.validation.size(), 50u);
  EXPECT_EQ(data.train.num_classes(), 2u);
  for (std::size_t i = 0; i < data.train.size(); ++i) {
    for (float v : data.train.image(i)) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST_P(IntensitySweep, HigherIntensityIsLessNoisy) {
  // Noise proxy: mean absolute difference between two shots of the SAME
  // conformation at the SAME orientation should shrink as fluence grows.
  const auto [conf, unused] =
      xfel::make_conformation_pair(xfel::ProteinConfig{});
  (void)unused;
  xfel::DetectorConfig det;
  det.pixels = 8;
  util::Rng rng(5);
  const xfel::Mat3 orientation = xfel::Mat3::random_rotation(rng);

  auto shot_noise = [&](xfel::BeamIntensity intensity) {
    xfel::DiffractionSimulator sim(det, intensity);
    const auto ideal = sim.ideal_pattern(conf, orientation);
    // Compare a Poisson sample against the ideal pattern shape.
    const double photons = xfel::beam_expected_photons(intensity);
    util::Rng noise_rng(9);
    double err = 0.0;
    for (std::size_t i = 0; i < ideal.size(); ++i) {
      const double expected = photons * ideal[i];
      const double sampled =
          static_cast<double>(noise_rng.poisson(expected));
      err += std::fabs(sampled - expected) / photons;
    }
    return err;
  };
  if (GetParam() == xfel::BeamIntensity::kHigh) {
    EXPECT_LT(shot_noise(xfel::BeamIntensity::kHigh),
              shot_noise(xfel::BeamIntensity::kLow));
  }
}

INSTANTIATE_TEST_SUITE_P(Beams, IntensitySweep,
                         ::testing::Values(xfel::BeamIntensity::kLow,
                                           xfel::BeamIntensity::kMedium,
                                           xfel::BeamIntensity::kHigh));

// -------------------------------------------------- genome shape sweeps

struct SpaceCase {
  std::size_t phases, nodes;
};

class GenomeSweep : public ::testing::TestWithParam<SpaceCase> {};

TEST_P(GenomeSweep, BitsAndJsonRoundTripForEveryGeometry) {
  const SpaceCase c = GetParam();
  util::Rng rng(c.phases * 100 + c.nodes);
  for (int trial = 0; trial < 10; ++trial) {
    const nas::Genome g = nas::random_genome(c.phases, c.nodes, rng);
    EXPECT_EQ(g.bit_count(),
              c.phases * (nn::PhaseSpec::bits_for_nodes(c.nodes) + 1));
    EXPECT_EQ(nas::Genome::from_bits(g.to_bits(), c.phases, c.nodes).key(),
              g.key());
    EXPECT_EQ(nas::Genome::from_json(g.to_json()).key(), g.key());
  }
}

INSTANTIATE_TEST_SUITE_P(Spaces, GenomeSweep,
                         ::testing::Values(SpaceCase{1, 2}, SpaceCase{2, 3},
                                           SpaceCase{3, 4}, SpaceCase{4, 5}));

// ---------------------------------------- checkpoint round-trip sweeps

struct CheckpointCase {
  std::uint64_t seed;
  bool searchable_ops;
};

class CheckpointSweep : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(CheckpointSweep, RandomArchitecturesSurviveSerialization) {
  // Property over random architectures (macro and extended space): a model
  // checkpointed through JSON text reproduces identical predictions.
  const CheckpointCase c = GetParam();
  util::Rng rng(c.seed);
  nas::SearchSpaceConfig space;
  space.input_shape = {1, 8, 8};
  space.searchable_ops = c.searchable_ops;
  const nas::Genome genome =
      nas::random_genome(space.phase_count, space.nodes_per_phase, rng,
                         c.searchable_ops);
  nn::Model model = nas::decode_genome(genome, space, rng);
  nn::Tensor x = nn::Tensor::randn({2, 1, 8, 8}, rng);
  // One training-mode pass so batch-norm has nontrivial running stats.
  model.trunk().forward(x, true);
  const nn::Tensor before = model.predict(x);

  nn::Model restored = nn::Model::from_checkpoint(
      util::Json::decode(model.checkpoint().encode()));
  const nn::Tensor after = restored.predict(x);
  ASSERT_EQ(before.shape(), after.shape());
  for (std::size_t i = 0; i < before.numel(); ++i)
    EXPECT_FLOAT_EQ(before[i], after[i]);
  EXPECT_EQ(restored.flops_per_image(), model.flops_per_image());
}

INSTANTIATE_TEST_SUITE_P(
    RandomModels, CheckpointSweep,
    ::testing::Values(CheckpointCase{101, false}, CheckpointCase{202, false},
                      CheckpointCase{303, true}, CheckpointCase{404, true},
                      CheckpointCase{505, true}));

// ------------------------------------------------ engine safety sweeps

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, EarlyTerminationPredictionsStayNearTruth) {
  // For concave saturating curves with increasing noise, the engine may
  // terminate later or not at all — but whenever it does terminate, its
  // reported fitness must stay within bounds and near the true plateau.
  const double noise = GetParam();
  const penguin::PredictionEngine engine(penguin::default_engine_config());
  util::Rng rng(static_cast<std::uint64_t>(noise * 1000) + 3);
  for (int trial = 0; trial < 20; ++trial) {
    const double plateau = rng.uniform(70.0, 99.0);
    std::vector<double> curve;
    for (int e = 1; e <= 25; ++e) {
      curve.push_back(plateau * (1.0 - std::exp(-0.35 * e)) +
                      rng.normal(0.0, noise));
    }
    const auto sim = penguin::simulate_early_termination(curve, engine);
    if (sim.early_terminated) {
      EXPECT_GE(sim.reported_fitness, 0.0);
      EXPECT_LE(sim.reported_fitness, 100.0);
      EXPECT_NEAR(sim.reported_fitness, plateau, 5.0 + 4.0 * noise);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseSweep,
                         ::testing::Values(0.0, 0.25, 1.0, 3.0));

// -------------------------------------------------- genome digest (memo key)

// The memo-cache and tabular-mode key. Every consumer still verifies the
// full key behind the digest, so a collision can only cost a cache miss —
// but the digest should be empirically injective at search scale anyway.
TEST(GenomeDigest, InjectiveOnTenThousandGenomeSample) {
  util::Rng rng(2023);
  std::map<std::uint64_t, std::string> seen;
  std::size_t distinct = 0;
  while (distinct < 10000) {
    const nas::Genome g =
        nas::random_genome(3, 4, rng, /*with_node_ops=*/distinct % 2 == 0);
    const auto [it, fresh] = seen.emplace(g.digest(), g.key());
    if (fresh) {
      ++distinct;
      continue;
    }
    // Same digest must mean same key (a revisited genome, not a collision).
    ASSERT_EQ(it->second, g.key());
  }
}

TEST(GenomeDigest, StableAcrossSerializationRoundTrips) {
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const nas::Genome g = nas::random_genome(3, 3, rng, i % 2 == 0);
    const std::uint64_t d = g.digest();
    EXPECT_EQ(nas::Genome::from_json(g.to_json()).digest(), d);
    EXPECT_EQ(nas::Genome::from_bits(g.to_bits(), 3, 3, i % 2 == 0).digest(),
              d);
    EXPECT_EQ(nas::Genome::from_json(
                  util::Json::parse(g.to_json().dump()))
                  .digest(),
              d);
  }
}

// Flipping any single gene — every connectivity bit, skip bit, and (in the
// op-searchable space) op bit — must change the digest.
TEST(GenomeDigest, ChangesUnderEverySingleGeneMutation) {
  util::Rng rng(9);
  for (int variant = 0; variant < 2; ++variant) {
    const bool with_ops = variant == 1;
    const nas::Genome g = nas::random_genome(2, 3, rng, with_ops);
    const std::uint64_t base = g.digest();
    const std::vector<bool> bits = g.to_bits();
    for (std::size_t b = 0; b < bits.size(); ++b) {
      std::vector<bool> flipped = bits;
      flipped[b] = !flipped[b];
      const nas::Genome m = nas::Genome::from_bits(flipped, 2, 3, with_ops);
      EXPECT_NE(m.digest(), base) << "bit " << b << " ops=" << with_ops;
    }
  }
}

// The search's actual mutation operator never silently preserves a digest:
// whenever it changes the key, it changes the digest.
TEST(GenomeDigest, MutationOperatorChangesDigestWheneverKeyChanges) {
  util::Rng rng(13);
  nas::OperatorConfig ops;
  ops.mutation_rate = 0.2;
  std::size_t changed = 0;
  for (int i = 0; i < 200; ++i) {
    const nas::Genome g = nas::random_genome(2, 3, rng);
    const nas::Genome m = nas::mutate(g, ops, rng);
    if (m.key() == g.key()) {
      EXPECT_EQ(m.digest(), g.digest());
    } else {
      EXPECT_NE(m.digest(), g.digest());
      ++changed;
    }
  }
  EXPECT_GT(changed, 0u);
}

}  // namespace
}  // namespace a4nn
