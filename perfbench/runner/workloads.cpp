#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "layers.hpp"
#include "quant/quantized_model.hpp"
#include "serve/registry.hpp"
#include "serve_load.hpp"
#include "stats.hpp"
#include "traced.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSetupReps = 15;  // syntheses per set-up; setup_s is the median
constexpr std::size_t kMinReps = 3;    // rounds per run, at least
constexpr std::size_t kServeWindowsPerRound = 5;  // serving windows per round
constexpr double kWindowS = 1.0;   // one serving window
constexpr double kLimitMs = 10.0;  // the ladder's p99 limit

/// True while a run should keep repeating: fewer than kMinReps done, or
/// `budget_s` not spent yet. Before another round it flushes dirty pages,
/// so the writeback of the previous round's commons does not land inside
/// the next round's timings.
bool keep_going(std::size_t done, double started_s, double budget_s) {
  if (done >= kMinReps && now_s() - started_s >= budget_s) return false;
  ::sync();
  return true;
}

void check_same(Report& report, const std::string& what, const std::string& a,
                const std::string& b) {
  if (a != b) report.fail(what + " differs between runs of one seed");
}

std::size_t trained_epochs(const core::WorkflowResult& result) {
  const util::Json& m = result.summary.metrics;
  return m.contains("counters")
             ? static_cast<std::size_t>(
                   m.at("counters").number_or("train.epochs", 0.0))
             : 0;
}

SearchNumbers plain_search(const core::WorkflowConfig& config,
                           const xfel::XfelDataset& data, Report& report) {
  const SearchNumbers n = summarize(run_plain(config, data));
  report.attempt(n.evaluations, n.failed);
  return n;
}

/// Resume the finished search of `written` from its commons. The resume
/// must reuse N of N evaluations, train no epoch and return the same result.
SearchNumbers checked_resume(core::WorkflowConfig config,
                             const xfel::XfelDataset& data,
                             const SearchNumbers& written, Report& report) {
  config.resume_from_commons = true;
  const core::WorkflowResult result = run_plain(config, data);
  const SearchNumbers n = summarize(result);
  const std::size_t epochs = trained_epochs(result);
  report.attempt(n.evaluations, n.failed + (n.evaluations - n.reused));
  if (n.reused != n.evaluations)
    report.fail("resume reused " + std::to_string(n.reused) + " of " +
                std::to_string(n.evaluations) + " evaluations");
  if (epochs != 0)
    report.fail("resume trained " + std::to_string(epochs) + " epoch(s)");
  check_same(report, "resumed search result", written.fingerprint,
             n.fingerprint);
  return n;
}

double commons_mb(const fs::path& root) {
  return static_cast<double>(tree_bytes(root)) / 1e6;
}

void check_window(Report& report, const LoadWindow& w) {
  if (w.label_mismatches > 0)
    report.fail(std::to_string(w.label_mismatches) +
                " served label(s) differ from Model::predict alone");
}

/// Samples of the end-to-end numbers, one per round. Every workload
/// repeats rounds of its pipeline (search, resume; on serve also set-up
/// and serving) for the run's budget. search_s and resume_s are the
/// fastest round: the searches are deterministic, so every round does the
/// same work and only the host's interference differs between them.
/// setup_s and commons_mb are the median of their samples.
struct Samples {
  std::vector<double> setup_s, search_s, resume_s, commons_mb;
  SearchNumbers search;  // the deterministic half: fitness, epochs saved
};

void report_samples(Report& report, const Samples& s) {
  const auto print = [](const char* name, const std::vector<double>& v) {
    std::fprintf(stderr, "perfbench: %s samples:", name);
    for (double x : v) std::fprintf(stderr, " %.4g", x);
    std::fprintf(stderr, "\n");
  };
  print("setup_s", s.setup_s);
  print("search_s", s.search_s);
  print("resume_s", s.resume_s);
  print("commons_mb", s.commons_mb);
  report.metric("setup_s", median(s.setup_s), "s");
  report.metric("search_s", fastest(s.search_s), "s");
  report.metric("epochs_saved_pct", s.search.epochs_saved_pct, "%");
  report.metric("best_fitness_pct", s.search.best_fitness_pct, "%");
  report.metric("resume_s", fastest(s.resume_s), "s");
  report.metric("commons_mb", median(s.commons_mb), "MB");
}

/// Untraced runs (median wall, determinism) and one traced run of the same
/// configuration; fails the report when the traced result drifts.
struct TracedComparison {
  TracedRun traced;
  double untraced_median_s = 0.0;
};

TracedComparison trace_against_plain(const core::WorkflowConfig& config,
                                     const xfel::XfelDataset& data,
                                     Report& report) {
  TracedComparison out;
  std::vector<double> walls;
  std::string first;
  for (std::size_t i = 0; i < 2; ++i) {
    const SearchNumbers n = plain_search(config, data, report);
    walls.push_back(n.wall_s);
    if (i == 0) first = n.fingerprint;
    check_same(report, "search result", first, n.fingerprint);
  }
  out.untraced_median_s = median(walls);
  out.traced = run_traced(config, data);
  const SearchNumbers n = summarize(out.traced.result);
  report.attempt(n.evaluations, n.failed);
  if (n.fingerprint != first)
    report.fail("traced composition and A4nnWorkflow::run() disagree");
  return out;
}

/// What one serve set-up leaves behind: the champion search's data, its
/// commons and result, and the published champion with its traffic.
struct ServeSetup {
  std::unique_ptr<ScratchDir> commons;
  core::WorkflowConfig config;
  xfel::XfelDataset data;
  SearchNumbers search;
  Champion champion;
};

/// One set-up: synthesize the champion's data, run the small fixed search
/// into a fresh commons, publish its champion through the registry and
/// synthesize the run seed's labelled request frames.
std::unique_ptr<ServeSetup> serve_setup(const Options& opts, Report& report) {
  auto s = std::make_unique<ServeSetup>();
  s->commons = std::make_unique<ScratchDir>(opts, "champion");
  s->config = champion_config(opts, s->commons->path());
  s->data = xfel::generate_xfel_dataset(s->config.dataset);
  s->search = plain_search(s->config, s->data, report);
  s->champion = load_champion(s->commons->path(), s->config.dataset, opts.seed);
  return s;
}

// ---- search --------------------------------------------------------------

void search_plain(const Options& opts, Report& report) {
  const core::WorkflowConfig config = search_config(opts);
  xfel::XfelDataset data;
  Samples s;
  s.setup_s.push_back(
      timed_synthesis(config.dataset, kSetupReps, data, report));

  // The search once with a commons: what keeping and resuming its result
  // costs.
  ScratchDir dir(opts, "search-commons");
  core::WorkflowConfig with_commons = config;
  with_commons.lineage = commons_at(dir.path());
  s.search = plain_search(with_commons, data, report);
  s.commons_mb.push_back(commons_mb(dir.path()));

  // Rounds: the measured search runs without a commons, so lineage plays
  // no part in search_s; a commons must not change its result.
  const double started = now_s();
  while (keep_going(s.search_s.size(), started, opts.seconds)) {
    const SearchNumbers n = plain_search(config, data, report);
    check_same(report, "search result with and without a commons",
               s.search.fingerprint, n.fingerprint);
    s.search_s.push_back(n.wall_s);
    s.resume_s.push_back(
        checked_resume(with_commons, data, s.search, report).wall_s);
  }
  report_samples(report, s);
}

void search_traced(const Options& opts, Report& report) {
  const core::WorkflowConfig config = search_config(opts);
  xfel::XfelDataset data;
  const double synth_s = timed_synthesis(config.dataset, kSetupReps, data, report);

  const TracedComparison cmp = trace_against_plain(config, data, report);
  report_search_layers(report, synth_s, cmp.traced);
  report_model_layers(report, config, data, cmp.traced.result.search.history);
  std::vector<double> spans = cmp.traced.spans.covered();
  spans.push_back(synth_s);
  report_accounting(report, cmp.traced.spans.wall_s + synth_s, spans,
                    cmp.traced.spans.wall_s, cmp.untraced_median_s);
}

// ---- commons -------------------------------------------------------------

void commons_plain(const Options& opts, Report& report) {
  xfel::XfelDataset data;
  Samples s;
  s.setup_s.push_back(timed_synthesis(commons_config(opts, opts.tmp).dataset,
                                      kSetupReps, data, report));

  // Rounds: write a fresh commons and resume it.
  const double started = now_s();
  while (keep_going(s.search_s.size(), started, opts.seconds)) {
    ScratchDir dir(opts, "commons");
    const core::WorkflowConfig config = commons_config(opts, dir.path());
    const SearchNumbers written = plain_search(config, data, report);
    if (s.search_s.empty()) s.search = written;
    check_same(report, "search result", s.search.fingerprint,
               written.fingerprint);
    s.search_s.push_back(written.wall_s);
    s.commons_mb.push_back(commons_mb(dir.path()));
    s.resume_s.push_back(checked_resume(config, data, written, report).wall_s);
  }
  report_samples(report, s);
}

void commons_traced(const Options& opts, Report& report) {
  xfel::XfelDataset data;
  const double synth_s = timed_synthesis(
      commons_config(opts, opts.tmp).dataset, kSetupReps, data, report);

  // Untraced reference: write + resume, twice.
  std::vector<double> untraced;
  std::string first;
  for (int i = 0; i < 2; ++i) {
    ScratchDir dir(opts, "commons");
    const core::WorkflowConfig config = commons_config(opts, dir.path());
    const SearchNumbers written = plain_search(config, data, report);
    const SearchNumbers resumed = checked_resume(config, data, written, report);
    untraced.push_back(written.wall_s + resumed.wall_s);
    if (i == 0) first = written.fingerprint;
    check_same(report, "search result", first, written.fingerprint);
  }

  ScratchDir dir(opts, "commons");
  core::WorkflowConfig config = commons_config(opts, dir.path());
  const TracedRun write = run_traced(config, data);
  config.resume_from_commons = true;
  const TracedRun resume = run_traced(config, data);
  const SearchNumbers written = summarize(write.result);
  const SearchNumbers resumed = summarize(resume.result);
  report.attempt(written.evaluations, written.failed);
  report.attempt(resumed.evaluations, resumed.failed + (resumed.evaluations -
                                                        resumed.reused));
  if (written.fingerprint != first || resumed.fingerprint != first)
    report.fail("traced composition and A4nnWorkflow::run() disagree");
  if (resumed.reused != resumed.evaluations || resume.spans.epochs != 0)
    report.fail("traced resume retrained evaluations");

  // Layer numbers over both runs: the writing run and its resume.
  TracedRun both = write;
  TracedSpans& s = both.spans;
  s.tracker_setup_s += resume.spans.tracker_setup_s;
  s.fsck_s += resume.spans.fsck_s;
  s.load_records_s += resume.spans.load_records_s;
  s.nas_self_s += resume.spans.nas_self_s;
  s.dispatch_s += resume.spans.dispatch_s;
  s.train_s += resume.spans.train_s;
  s.memo_index_s += resume.spans.memo_index_s;
  s.epochs += resume.spans.epochs;
  s.wall_s += resume.spans.wall_s;
  report_search_layers(report, synth_s, both);
  const double evaluations =
      static_cast<double>(written.evaluations + resumed.evaluations);
  report.metric("nas.evaluations", evaluations, "count");
  report.metric("nas.reuse_ratio",
                static_cast<double>(written.reused + resumed.reused) /
                    evaluations,
                "ratio");
  report_model_layers(report, config, data, write.result.search.history);
  ScratchDir replay(opts, "replay");
  report_lineage_layers(report, *config.lineage, replay.path());

  std::vector<double> spans = s.covered();
  spans.push_back(synth_s);
  report_accounting(report, s.wall_s + synth_s, spans, s.wall_s,
                    median(untraced));
}

// ---- serve ---------------------------------------------------------------

/// One walk up the fixed ladder from rung `start`: climb while rungs hold,
/// stop after two failing rungs in a row, step down if the first fails.
double ladder_walk(const Champion& champion, const std::vector<double>& ladder,
                   std::size_t start, Report& report) {
  std::vector<RungResult> rungs;
  serve::InferenceEngine engine(*champion.registry, engine_config());
  warm_up(engine, champion);
  const auto holds = [&](std::size_t i) {
    const double rate = ladder[i];
    const double duration = std::max(
        0.25, static_cast<double>(min_samples_for(99.0) + 100) / rate);
    const LoadWindow w = drive_open_loop(engine, champion, rate, duration);
    check_window(report, w);
    rungs.push_back(rung_of(w));
    return rung_holds(rungs.back(), kLimitMs);
  };
  std::size_t i = start;
  if (!holds(i)) {
    while (i > 0 && !holds(--i)) {
    }
  } else {
    std::size_t misses = 0;
    while (misses < 2 && i + 1 < ladder.size())
      misses = holds(++i) ? 0 : misses + 1;
  }
  return max_holding_rate(rungs, kLimitMs);
}

void serve_plain(const Options& opts, Report& report) {
  // Rounds: a full set-up (synthesis, champion search, registry load), a
  // resume of the champion's commons, then serving windows whose labels
  // are checked and whose refusals count as failures. Their latency is a
  // per-layer number (serve.p50_ms): at this scale it tracks the host's
  // scheduling delay more than the program. The first round's champion
  // and engine serve every round; later set-ups must publish the same
  // champion.
  Samples s;
  std::unique_ptr<ServeSetup> first;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::string champion_id;
  const double started = now_s();
  while (keep_going(s.setup_s.size(), started, opts.seconds)) {
    const double t0 = now_s();
    std::unique_ptr<ServeSetup> set = serve_setup(opts, report);
    s.setup_s.push_back(now_s() - t0);
    const auto& info = set->champion.registry->active()->info;
    const std::string id =
        std::to_string(info.model_id) + "@" + std::to_string(info.epoch);
    if (!first) {
      s.search = set->search;
      champion_id = id;
    }
    check_same(report, "champion search result", s.search.fingerprint,
               set->search.fingerprint);
    check_same(report, "served champion", champion_id, id);
    s.search_s.push_back(set->search.wall_s);
    s.commons_mb.push_back(commons_mb(set->commons->path()));
    s.resume_s.push_back(
        checked_resume(set->config, set->data, set->search, report).wall_s);
    if (!first) {
      first = std::move(set);
      engine = std::make_unique<serve::InferenceEngine>(
          *first->champion.registry, engine_config());
    }
    warm_up(*engine, first->champion);  // the engine idled during set-up
    for (std::size_t i = 0; i < kServeWindowsPerRound; ++i) {
      const LoadWindow w = drive_open_loop(*engine, first->champion,
                                           kNominalRps, kWindowS);
      check_window(report, w);
      report.attempt(w.requests.size(), w.refused());
    }
  }
  report_samples(report, s);
}

void serve_traced(const Options& opts, Report& report) {
  // Every phase of the traced run is a span; the wall is the whole run.
  std::vector<double> spans;
  const double wall0 = now_s();
  const auto span = [&spans](auto&& fn) {
    const double t0 = now_s();
    fn();
    spans.push_back(now_s() - t0);
  };

  std::unique_ptr<ServeSetup> s;
  span([&] { s = serve_setup(opts, report); });
  const Champion& champion = s->champion;
  double synth_s = 0.0;
  span([&] {
    xfel::XfelDataset again;
    synth_s = timed_synthesis(s->config.dataset, 1, again, report);
  });

  // The champion search again, traced, against the set-up's plain run.
  ScratchDir dir(opts, "champion-traced");
  TracedRun traced;
  span([&] { traced = run_traced(champion_config(opts, dir.path()), s->data); });
  if (search_fingerprint(traced.result.search) != s->search.fingerprint)
    report.fail("traced composition and A4nnWorkflow::run() disagree");
  report_search_layers(report, synth_s, traced);
  span([&] {
    report_model_layers(report, s->config, s->data,
                        traced.result.search.history);
  });
  ScratchDir replay(opts, "replay");
  span([&] {
    report_lineage_layers(report, *s->config.lineage, replay.path());
  });

  // Serving at the nominal rate: half the budget in windows.
  std::vector<double> queue, service, late, p50s, p99s;
  double batch = 0.0;
  std::size_t shed = 0, rejected = 0;
  span([&] {
    serve::InferenceEngine engine(*champion.registry, engine_config());
    warm_up(engine, champion);
    const double started = now_s();
    while (keep_going(p99s.size(), started, 0.5 * opts.seconds)) {
      const LoadWindow w =
          drive_open_loop(engine, champion, kNominalRps, kWindowS);
      check_window(report, w);
      report.attempt(w.requests.size(), w.refused());
      const std::vector<double> latency = due_latencies_ms(w.requests);
      p50s.push_back(tail_percentile(latency, 50.0));
      p99s.push_back(tail_percentile(latency, 99.0));
      queue.insert(queue.end(), w.queue_ms.begin(), w.queue_ms.end());
      service.insert(service.end(), w.service_ms.begin(), w.service_ms.end());
      late.insert(late.end(), w.late_ms.begin(), w.late_ms.end());
      batch += w.batch_mean;
      shed += w.shed;
      rejected += w.rejected;
    }
  });
  report.metric("serve.p50_ms", median(p50s), "ms");
  report.metric("serve.p99_ms", median(p99s), "ms");
  report.metric("serve.queue_ms", tail_percentile(queue, 50.0), "ms");
  report.metric("serve.service_ms", tail_percentile(service, 50.0), "ms");
  report.metric("serve.batch_mean", batch / static_cast<double>(p99s.size()),
                "count");
  report.metric("serve.shed", static_cast<double>(shed), "count");
  report.metric("serve.rejected", static_cast<double>(rejected), "count");
  report.metric("serve.generator_late_ms", tail_percentile(late, 99.0), "ms");

  // The other half walking the rate ladder; each walk starts a few rungs
  // below the previous result.
  std::vector<double> walks;
  span([&] {
    const std::vector<double> ladder = rate_ladder(1000.0, 64000.0, 1.08);
    const auto rung_at = [&ladder](double rate) {
      return static_cast<std::size_t>(
          std::lower_bound(ladder.begin(), ladder.end(), rate) -
          ladder.begin());
    };
    const std::size_t nominal = rung_at(kNominalRps);
    std::size_t start = nominal;
    const double started = now_s();
    while (keep_going(walks.size(), started, 0.5 * opts.seconds)) {
      walks.push_back(ladder_walk(champion, ladder, start, report));
      start = std::max(nominal, rung_at(walks.back()) - 3);
    }
  });
  report.metric("serve.max_rps", median(walks), "req/s");

  // Float and int8 predict of the champion at the serving batch.
  span([&] {
    auto generation = champion.registry->active();
    constexpr std::size_t kBatch = 8;
    std::vector<float> pixels;
    for (std::size_t i = 0; i < kBatch; ++i)
      pixels.insert(pixels.end(), champion.pool.frames[i].begin(),
                    champion.pool.frames[i].end());
    tensor::Shape shape = generation->input_shape;
    shape.insert(shape.begin(), kBatch);
    const tensor::Tensor images(shape, pixels);
    quant::QuantizedModel int8 =
        quant::QuantizedModel::quantize(generation->model, images);
    const auto time_ms = [](auto&& fn) {
      std::vector<double> ms;
      for (int i = 0; i < 50; ++i) {
        const double t0 = now_s();
        fn();
        ms.push_back(1e3 * (now_s() - t0));
      }
      return median(ms);
    };
    report.metric("nn.predict_ms",
                  time_ms([&] { generation->model.predict(images); }), "ms");
    report.metric("quant.predict_ms", time_ms([&] { int8.predict(images); }),
                  "ms");
  });

  report_accounting(report, now_s() - wall0, spans, traced.spans.wall_s,
                    s->search.wall_s);
}

}  // namespace

void run_search(const Options& opts, Report& report) {
  if (opts.trace) search_traced(opts, report);
  else search_plain(opts, report);
}

void run_commons(const Options& opts, Report& report) {
  if (opts.trace) commons_traced(opts, report);
  else commons_plain(opts, report);
}

void run_serve(const Options& opts, Report& report) {
  if (opts.trace) serve_traced(opts, report);
  else serve_plain(opts, report);
}

}  // namespace perfbench
