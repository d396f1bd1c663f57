// Lineage tracker + data commons: record trails persist and reload, model
// snapshots reproduce predictions from any epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

#include "lineage/tracker.hpp"
#include "orchestrator/training_loop.hpp"
#include "util/frame.hpp"
#include "util/fsutil.hpp"
#include "xfel/dataset.hpp"

namespace a4nn::lineage {
namespace {

namespace fs = std::filesystem;

struct CommonsFixture : ::testing::Test {
  void SetUp() override { root = util::make_temp_dir("a4nn-lineage"); }
  void TearDown() override { fs::remove_all(root); }
  fs::path root;
};

TEST_F(CommonsFixture, NamingHelpers) {
  EXPECT_EQ(model_dir_name(7), "model_00007");
  EXPECT_EQ(snapshot_file_name(12), "epoch_0012.ckpt");
  EXPECT_EQ(training_state_file_name(12), "epoch_0012.state");
}

TEST_F(CommonsFixture, TrackerValidatesConfig) {
  EXPECT_THROW(LineageTracker(TrackerConfig{"", 0}), std::invalid_argument);
}

TEST_F(CommonsFixture, SnapshotCadence) {
  LineageTracker every_two({root, 2});
  EXPECT_FALSE(every_two.wants_snapshot(1));
  EXPECT_TRUE(every_two.wants_snapshot(2));
  EXPECT_TRUE(every_two.wants_snapshot(4));
  LineageTracker off({root, 0});
  EXPECT_FALSE(off.wants_snapshot(1));
}

TEST_F(CommonsFixture, RecordsRoundTripThroughCommons) {
  LineageTracker tracker({root, 0});
  util::Json cfg = util::Json::object();
  cfg["experiment"] = "unit-test";
  tracker.record_search_config(cfg);

  util::Rng rng(1);
  for (int id : {0, 1, 5}) {
    nas::EvaluationRecord r;
    r.genome = nas::random_genome(3, 4, rng);
    r.model_id = id;
    r.generation = id / 2;
    r.fitness = 90.0 + id;
    r.measured_fitness = r.fitness;
    r.flops = 1000u * static_cast<unsigned>(id + 1);
    r.epochs_trained = 5;
    r.max_epochs = 25;
    r.fitness_history = {10.0, 50.0, 70.0, 85.0, 90.0 + id};
    tracker.record_evaluation(r);
  }

  DataCommons commons(root);
  EXPECT_EQ(commons.search_config().at("experiment").as_string(), "unit-test");
  EXPECT_EQ(commons.model_ids(), (std::vector<int>{0, 1, 5}));
  const auto records = commons.load_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].model_id, 5);
  EXPECT_DOUBLE_EQ(records[2].fitness, 95.0);
  EXPECT_EQ(records[0].fitness_history.size(), 5u);
}

TEST_F(CommonsFixture, CommonsRejectsNonCommonsDir) {
  const fs::path other = util::make_temp_dir("a4nn-other");
  EXPECT_THROW(DataCommons{other}, std::invalid_argument);
  fs::remove_all(other);
}

TEST_F(CommonsFixture, PerEpochSnapshotsReloadAndReproduce) {
  // Train a real (tiny) model with per-epoch snapshots and verify the
  // reloaded model at each epoch reproduces its recorded fitness — the
  // paper's "load and re-evaluate from any point" claim.
  xfel::XfelDatasetConfig dcfg;
  dcfg.images_per_class = 30;
  dcfg.detector.pixels = 8;
  dcfg.intensity = xfel::BeamIntensity::kHigh;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(dcfg);

  LineageTracker tracker({root, 1});
  orchestrator::TrainerConfig tcfg;
  tcfg.max_epochs = 4;
  tcfg.use_prediction_engine = false;
  orchestrator::TrainingLoop loop(data.train, data.validation, tcfg, &tracker);

  nas::SearchSpaceConfig space;
  space.input_shape = {1, 8, 8};
  space.stem_channels = 4;
  util::Rng rng(2);
  const nas::Genome genome = nas::random_genome(3, 4, rng);
  nas::EvaluationRecord record = loop.train_genome(genome, space, 3, 77);
  record.genome = genome;
  tracker.record_evaluation(record);

  DataCommons commons(root);
  const auto epochs = commons.snapshot_epochs(3);
  EXPECT_EQ(epochs, (std::vector<std::size_t>{1, 2, 3, 4}));
  for (std::size_t e : epochs) {
    nn::Model reloaded = commons.load_model(3, e);
    const nn::EpochMetrics m = reloaded.evaluate(data.validation);
    EXPECT_NEAR(m.accuracy, record.fitness_history[e - 1], 1e-9)
        << "epoch " << e;
  }
}

TEST_F(CommonsFixture, MissingSnapshotThrows) {
  LineageTracker tracker({root, 0});
  DataCommons commons(root);
  EXPECT_THROW(commons.load_model(0, 1), std::runtime_error);
  EXPECT_TRUE(commons.snapshot_epochs(42).empty());
}

/// Values a decimal text round trip loses or cannot print at all: -0.0,
/// the smallest denormals, +-inf, and a quiet NaN carrying a payload.
std::vector<float> special_values(std::size_t n) {
  std::uint32_t nan_bits = 0x7fc0beefu;
  float nan_payload;
  std::memcpy(&nan_payload, &nan_bits, sizeof nan_payload);
  const float specials[] = {-0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -7.0f * std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            nan_payload,
                            0.1f};
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = specials[i % std::size(specials)];
  return out;
}

bool bit_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

nn::Model special_model() {
  util::Rng rng(4);
  nas::SearchSpaceConfig space;
  space.input_shape = {1, 8, 8};
  space.stem_channels = 4;
  nn::Model model =
      nas::decode_genome(nas::random_genome(3, 4, rng), space, rng);
  for (auto& p : model.trunk().params()) {
    const std::vector<float> v = special_values(p.value->numel());
    std::copy(v.begin(), v.end(), p.value->span().begin());
  }
  return model;
}

TEST_F(CommonsFixture, CheckpointRoundTripIsBitExact) {
  nn::Model model = special_model();
  LineageTracker tracker({root, 1});
  tracker.record_model_epoch(0, 1, model);

  DataCommons commons(root);
  nn::Model back = commons.load_model(0, 1);
  const auto want = model.trunk().params();
  const auto got = back.trunk().params();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].value->shape(), want[i].value->shape());
    EXPECT_TRUE(bit_equal(got[i].value->span(), want[i].value->span()))
        << "slot " << i;
  }
  // Non-parameter state (BatchNorm running statistics) too.
  EXPECT_EQ(back.checkpoint().encode(), model.checkpoint().encode());
}

TEST_F(CommonsFixture, OptimizerStateRoundTripIsBitExact) {
  nn::Model model = special_model();
  const auto slots = model.trunk().params();
  util::Json crafted = util::Json::object();
  util::Json velocities = util::Json::array();
  for (const auto& slot : slots)
    velocities.push_back(util::JsonBlob::f32(
        {slot.value->numel()}, special_values(slot.value->numel())));
  crafted["velocity"] = std::move(velocities);
  nn::Sgd opt(0.1);
  opt.load_state(slots, crafted);

  util::Json state = util::Json::object();
  state["optimizer"] = opt.state_json(slots);
  LineageTracker tracker({root, 1});
  tracker.record_training_state(0, 1, state);

  DataCommons commons(root);
  nn::Sgd restored(0.1);
  restored.load_state(slots, commons.load_training_state(0, 1).at("optimizer"));
  const util::Json back = restored.state_json(slots);
  const auto& want = crafted.at("velocity").as_array();
  const auto& got = back.at("velocity").as_array();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(bit_equal(got[i].as_blob().f32_values(),
                          want[i].as_blob().f32_values()))
        << "slot " << i;
}

TEST_F(CommonsFixture, JournalCommitAppendsOneLine) {
  LineageTracker tracker({root, 0});
  util::Json doc = util::Json::object();
  doc["n"] = 1;
  tracker.record_artifact("a.json", doc);
  tracker.record_artifact("b.json", doc);
  const fs::path journal = root / manifest_file_name();
  const std::string before = util::read_file(journal);

  const std::uint64_t writes = util::write_op_count();
  tracker.record_artifact("c.json", doc);
  EXPECT_EQ(util::write_op_count() - writes, 2u);  // artifact + one append
  const std::string after = util::read_file(journal);
  ASSERT_GT(after.size(), before.size());
  EXPECT_EQ(after.substr(0, before.size()), before);
  const std::string added = after.substr(before.size());
  EXPECT_EQ(std::count(added.begin(), added.end(), '\n'), 1);
  EXPECT_NE(added.find("c.json"), std::string::npos);
}

TEST_F(CommonsFixture, FirstCommitAfterTornJournalRewritesItOnce) {
  util::Json doc = util::Json::object();
  doc["n"] = 1;
  {
    LineageTracker tracker({root, 0});
    tracker.record_artifact("a.json", doc);
    tracker.record_artifact("b.json", doc);
  }
  const fs::path journal = root / manifest_file_name();
  fs::resize_file(journal, fs::file_size(journal) - 5);  // tear b's line

  LineageTracker tracker({root, 0});
  tracker.record_artifact("c.json", doc);
  const std::string repaired = util::read_file(journal);
  // The torn fragment is gone rather than extended: a's line, then c's.
  EXPECT_EQ(std::count(repaired.begin(), repaired.end(), '\n'), 2);
  EXPECT_EQ(repaired.back(), '\n');
  EXPECT_EQ(repaired.find("b.json"), std::string::npos);
  EXPECT_NE(repaired.find("c.json"), std::string::npos);

  // Later commits append again.
  tracker.record_artifact("d.json", doc);
  const std::string appended = util::read_file(journal);
  EXPECT_EQ(appended.substr(0, repaired.size()), repaired);

  DataCommons commons(root);
  const FsckReport report = commons.fsck(FsckMode::kDeep);
  EXPECT_EQ(report.integrity.journal_torn_lines, 0u);
  EXPECT_EQ(report.integrity.crc_mismatches, 0u);
  EXPECT_EQ(report.integrity.unjournaled_adopted, 1u);  // b.json, intact
  EXPECT_TRUE(commons.fsck(FsckMode::kDeep).clean());
}

TEST_F(CommonsFixture, PreBinaryDecimalArtifactsAreQuarantined) {
  // A commons written before the binary tensor section: weights as JSON
  // decimals under *.ckpt.json / *.state.json. There is no reader for it.
  LineageTracker tracker({root, 1});
  const fs::path dir = root / "models" / model_dir_name(0);
  util::write_file(dir / "epoch_0001.ckpt.json",
                   util::frame(R"({"input_shape":[1,8,8],"spec":{},)"
                               R"("weights":{"w":{"shape":[1],"data":[0.5]}}})"));
  util::write_file(dir / "epoch_0001.state.json",
                   util::frame(R"({"epoch":1,"optimizer":{"velocity":[[0.5]]}})"));

  DataCommons commons(root);
  EXPECT_TRUE(commons.snapshot_epochs(0).empty());
  EXPECT_TRUE(commons.training_state_epochs(0).empty());
  const FsckReport report = commons.fsck(FsckMode::kDeep);
  EXPECT_EQ(report.files_quarantined, 2u);
  ASSERT_EQ(report.issues.size(), 2u);
  for (const auto& issue : report.issues)
    EXPECT_NE(issue.reason.find("JSON decimals"), std::string::npos)
        << issue.reason;
  EXPECT_TRUE(fs::exists(root / "quarantine" / "models" / model_dir_name(0) /
                         "epoch_0001.ckpt.json"));
  EXPECT_FALSE(fs::exists(dir / "epoch_0001.state.json"));
  EXPECT_TRUE(commons.fsck(FsckMode::kDeep).clean());
}

}  // namespace
}  // namespace a4nn::lineage
