// Open-loop load against serve::InferenceEngine: one generator thread
// submits labelled frames on a fixed schedule (request i is due at
// i / rate), so a slow engine shows up as latency instead of slowing the
// offered load down. Latency runs from each request's due time.
#pragma once

#include <filesystem>
#include <memory>
#include <vector>

#include "serve/engine.hpp"
#include "stats.hpp"
#include "xfel/dataset.hpp"

namespace perfbench {

namespace serve = a4nn::serve;
namespace xfel = a4nn::xfel;

/// Requests per second the serving numbers are quoted at.
inline constexpr double kNominalRps = 4000.0;

/// The engine every workload serves with: micro-batches of up to 8, a
/// 2 ms batching delay, 2 workers, no load shedding.
serve::EngineConfig engine_config();

/// Frames to send and, per frame, the label Model::predict gives it alone.
struct FramePool {
  std::vector<std::vector<float>> frames;
  std::vector<std::size_t> alone_labels;
};

/// A champion published from a commons, and the traffic to send it.
struct Champion {
  std::unique_ptr<serve::ModelRegistry> registry;
  FramePool pool;
  std::vector<std::size_t> order;  // frame index per request slot
};

/// Publish the best-fitness float champion of `commons` through
/// serve::ModelRegistry, and synthesize labelled frames shaped like
/// `frames` from `seed` (the request stream differs per run seed).
Champion load_champion(const std::filesystem::path& commons,
                       xfel::XfelDatasetConfig frames, std::uint64_t seed);

struct LoadWindow {
  double rate = 0.0;
  std::vector<RequestTiming> requests;
  std::vector<double> queue_ms;       // answered requests only
  std::vector<double> service_ms;     // latency_ms - queue_ms, answered only
  std::vector<double> late_ms;        // generator lateness per request
  std::size_t shed = 0;
  std::size_t rejected = 0;
  std::size_t unanswered = 0;         // accepted, but the future broke
  std::size_t label_mismatches = 0;   // served label != predicted alone
  double batch_mean = 0.0;
  double drain_ms = 0.0;

  std::size_t refused() const { return shed + rejected + unanswered; }
};

/// Serve `duration_s` seconds of open-loop traffic at `rate` req/s through
/// `engine`, then wait until it has answered everything.
LoadWindow drive_open_loop(serve::InferenceEngine& engine,
                           const Champion& champion, double rate,
                           double duration_s);

/// Unmeasured traffic at the nominal rate, so a fresh engine's first
/// batches (thread start, scratch arenas) stay out of the numbers.
void warm_up(serve::InferenceEngine& engine, const Champion& champion);

/// The rung result the ladder rule reads off one window.
RungResult rung_of(const LoadWindow& window);

}  // namespace perfbench
