#include "serve_load.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>

#include "serve/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

serve::EngineConfig engine_config() {
  serve::EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_ms = 2.0;
  cfg.workers = 2;
  return cfg;
}

Champion load_champion(const std::filesystem::path& commons,
                       xfel::XfelDatasetConfig frames, std::uint64_t seed) {
  Champion c;
  serve::RegistryConfig rc;
  rc.commons_root = commons;
  rc.policy = serve::ChampionPolicy::kBestFitness;
  c.registry = std::make_unique<serve::ModelRegistry>(rc);
  c.registry->refresh();

  frames.images_per_class = 32;
  frames.seed = seed;
  const xfel::XfelDataset labelled = xfel::generate_xfel_dataset(frames);
  auto generation = c.registry->active();
  for (const a4nn::nn::Dataset* part : {&labelled.train, &labelled.validation}) {
    for (std::size_t i = 0; i < part->size(); ++i) {
      const auto image = part->image(i);
      c.pool.frames.emplace_back(image.begin(), image.end());
      const a4nn::tensor::Tensor one(
          {1, part->channels(), part->height(), part->width()},
          c.pool.frames.back());
      const a4nn::tensor::Tensor scores = generation->model.predict(one);
      const auto best =
          std::max_element(scores.span().begin(), scores.span().end());
      c.pool.alone_labels.push_back(
          static_cast<std::size_t>(best - scores.span().begin()));
    }
  }
  a4nn::util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  c.order.resize(4096);
  for (auto& slot : c.order)
    slot = std::min(c.pool.frames.size() - 1,
                    static_cast<std::size_t>(
                        rng.uniform() *
                        static_cast<double>(c.pool.frames.size())));
  return c;
}

LoadWindow drive_open_loop(serve::InferenceEngine& engine,
                           const Champion& champion, double rate,
                           double duration_s) {
  using clock = std::chrono::steady_clock;
  const FramePool& pool = champion.pool;
  const std::vector<std::size_t>& order = champion.order;
  LoadWindow w;
  w.rate = rate;
  const auto count = static_cast<std::size_t>(std::llround(rate * duration_s));
  w.requests.resize(count);
  w.late_ms.reserve(count);
  std::vector<std::future<serve::Prediction>> futures(count);
  std::vector<bool> accepted(count, false);

  const a4nn::util::Json before = engine.stats().at("batches");
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const double due_ms = 1e3 * static_cast<double>(i) / rate;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double, std::milli>(due_ms)));
    RequestTiming& r = w.requests[i];
    r.due_ms = due_ms;
    r.submitted_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    w.late_ms.push_back(r.submitted_ms - due_ms);
    serve::SubmitResult res =
        engine.submit(pool.frames[order[i % order.size()]]);
    switch (res.admission) {
      case serve::Admission::kAccepted:
        futures[i] = std::move(res.prediction);
        accepted[i] = true;
        break;
      case serve::Admission::kShed: ++w.shed; break;
      case serve::Admission::kRejected: ++w.rejected; break;
    }
  }
  const auto drain0 = clock::now();
  engine.drain();
  w.drain_ms =
      std::chrono::duration<double, std::milli>(clock::now() - drain0).count();

  for (std::size_t i = 0; i < count; ++i) {
    if (!accepted[i]) continue;
    try {
      const serve::Prediction p = futures[i].get();
      RequestTiming& r = w.requests[i];
      r.service_ms = p.latency_ms;
      r.answered = true;
      w.queue_ms.push_back(p.queue_ms);
      w.service_ms.push_back(p.latency_ms - p.queue_ms);
      if (p.label != pool.alone_labels[order[i % order.size()]])
        ++w.label_mismatches;
    } catch (const std::exception&) {
      ++w.unanswered;
    }
  }
  const a4nn::util::Json after = engine.stats().at("batches");
  const double batches =
      after.at("count").as_number() - before.at("count").as_number();
  w.batch_mean = batches > 0.0 ? (after.at("items").as_number() -
                                  before.at("items").as_number()) /
                                     batches
                               : 0.0;
  return w;
}

void warm_up(serve::InferenceEngine& engine, const Champion& champion) {
  drive_open_loop(engine, champion, kNominalRps, 0.25);
}

RungResult rung_of(const LoadWindow& window) {
  RungResult r;
  r.rate = window.rate;
  r.p99_ms = tail_percentile(due_latencies_ms(window.requests), 99.0);
  r.refused = window.refused();
  r.drain_ms = window.drain_ms;
  return r;
}

}  // namespace perfbench
