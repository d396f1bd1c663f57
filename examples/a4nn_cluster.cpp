// Distributed A4NN: one master partitions each NSGA-II generation's
// training jobs across remote worker processes over TCP, surviving worker
// crashes, partitions, torn frames, and stragglers — and degrading to
// local in-process evaluation when no workers are reachable. Cluster and
// solo runs produce bit-identical Pareto fronts, because training is
// deterministic given (genome, model id, seed) and the dataset regenerates
// deterministically from the configuration.
//
// Master and workers are launched with the SAME workflow flags; the
// handshake compares a CRC-32 digest of the configuration so a mismatched
// worker is rejected instead of silently computing different results.
//
//   # master (terminal 1)
//   ./a4nn_cluster --master --port 7501 --min-workers 2
//                  --population 4 --generations 3 --epochs 4
//   # workers (terminals 2, 3)
//   ./a4nn_cluster --worker --connect 127.0.0.1:7501 --worker-name w0
//                  --population 4 --generations 3 --epochs 4
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "cluster/master.hpp"
#include "cluster/worker.hpp"
#include "core/a4nn.hpp"
#include "orchestrator/workflow_evaluator.hpp"
#include "tensor/parallel.hpp"
#include "util/args.hpp"
#include "util/checksum.hpp"
#include "util/shutdown.hpp"
#include "util/trace.hpp"

using namespace a4nn;

namespace {

/// Workflow configuration from the shared flags. Master and workers must
/// build the identical object — the handshake CRC is computed over its
/// JSON before any side applies local-only adjustments.
core::WorkflowConfig build_config(const util::ArgParser& args) {
  core::WorkflowConfig cfg;
  const std::string intensity = args.get("intensity");
  cfg.dataset.intensity = intensity == "low" ? xfel::BeamIntensity::kLow
                          : intensity == "high" ? xfel::BeamIntensity::kHigh
                                                : xfel::BeamIntensity::kMedium;
  cfg.dataset.images_per_class = args.get_size("images");
  cfg.dataset.detector.pixels = args.get_size("pixels");
  cfg.nas.population_size = args.get_size("population");
  cfg.nas.offspring_per_generation = args.get_size("offspring");
  cfg.nas.generations = args.get_size("generations");
  cfg.nas.max_epochs = args.get_size("epochs");
  cfg.nas.space.nodes_per_phase = args.get_size("nodes");
  cfg.nas.space.phase_count = args.get_size("phases");
  cfg.nas.space.input_shape = {1, cfg.dataset.detector.pixels,
                               cfg.dataset.detector.pixels};
  cfg.trainer.max_epochs = cfg.nas.max_epochs;
  cfg.trainer.use_prediction_engine = !args.get_flag("no-engine");
  cfg.trainer.engine.e_pred = static_cast<double>(cfg.nas.max_epochs);
  cfg.cluster.num_gpus = args.get_size("gpus");
  // Both sides parse --memo so the handshake config CRC matches; the memo
  // itself only lives on the master (workers just train what they are
  // sent — the genome-keyed seed rides the job payload).
  cfg.memo = nas::memo_mode_from_name(args.get("memo"));
  cfg.nas.allow_duplicates = args.get_flag("allow-duplicates");
  // Parsed on both sides so the handshake CRC covers the objective mode:
  // a master searching on measured latency refuses workers launched in
  // flops mode (and vice versa) at connect time, not mid-search.
  cfg.nas.objective = nas::objective_mode_from_name(args.get("objective"));
  cfg.seed = static_cast<std::uint64_t>(args.get_double("seed"));
  return cfg;
}

int run_master(const util::ArgParser& args, core::WorkflowConfig cfg,
               std::uint32_t config_crc) {
  std::string trace_out = args.get("trace-out");
  if (trace_out.empty()) {
    if (const char* env = std::getenv("A4NN_TRACE")) trace_out = env;
  }
  if (!trace_out.empty()) util::trace::start();

  cluster::MasterOptions opts;
  opts.bind = args.get("bind");
  opts.port = static_cast<std::uint16_t>(args.get_size("port"));
  opts.config_crc = config_crc;
  opts.heartbeat_interval_ms =
      static_cast<int>(args.get_size("heartbeat-interval-ms"));
  opts.heartbeat_timeout_ms =
      static_cast<int>(args.get_size("heartbeat-timeout-ms"));
  opts.max_attempts = args.get_size("max-attempts");
  opts.quarantine_after = args.get_size("quarantine-after");
  opts.seed = cfg.seed;
  opts.fault.partition_prob = args.get_double("fault-partition");
  opts.fault.torn_frame_prob = args.get_double("fault-torn");
  opts.fault.backoff_jitter = args.get_double("backoff-jitter");
  opts.fault.enabled =
      opts.fault.partition_prob > 0 || opts.fault.torn_frame_prob > 0;

  cluster::Master master(opts);
  std::printf("master: listening on %s:%u (config crc %08x)\n",
              opts.bind.c_str(), master.port(), config_crc);

  const std::size_t min_workers = args.get_size("min-workers");
  if (min_workers > 0) {
    std::printf("master: waiting for %zu worker(s)...\n", min_workers);
    if (!master.wait_for_workers(
            min_workers, static_cast<int>(args.get_size("wait-workers-ms")))) {
      std::fprintf(stderr,
                   "master: %zu worker(s) did not connect in time; "
                   "continuing with %zu (local fallback covers the rest)\n",
                   min_workers, master.connected_workers());
    }
  }

  cfg.cluster.remote = &master;
  core::WorkflowResult result;
  try {
    core::A4nnWorkflow workflow(std::move(cfg));
    result = workflow.run();
  } catch (const orchestrator::WorkflowInterrupted& e) {
    if (!util::shutdown_requested()) {
      std::fprintf(stderr, "a4nn_cluster: %s\n", e.what());
      return 1;
    }
    // Graceful SIGINT/SIGTERM: completed records already reached the
    // commons; tell the workers to shut down and flush the trace.
    master.stop();
    if (!trace_out.empty()) {
      util::trace::stop();
      util::trace::write(trace_out);
    }
    std::printf("a4nn_cluster: stopped cleanly on signal %d (%s)\n",
                util::shutdown_signal(), e.what());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a4nn_cluster: %s\n", e.what());
    return 1;
  }
  master.stop();

  if (!trace_out.empty()) {
    util::trace::stop();
    util::Json extra = util::Json::object();
    extra["metrics"] = result.summary.metrics;
    if (util::trace::write(trace_out, &extra))
      std::printf("trace: %s\n", trace_out.c_str());
  }

  const auto& ct = result.summary.cluster;
  std::printf(
      "cluster: %zu remote job(s), %zu local fallback(s), %zu dispatch(es), "
      "%zu re-dispatch(es), %zu worker failure(s), %zu quarantine(s)\n",
      ct.remote_jobs, ct.remote_fallbacks, ct.dispatches, ct.redispatches,
      ct.worker_failures, ct.worker_quarantines);
  if (ct.stale_results || ct.corrupt_frames || ct.corrupt_results)
    std::printf("cluster: dropped %zu stale / %zu corrupt frame(s) / "
                "%zu corrupt result(s)\n",
                ct.stale_results, ct.corrupt_frames, ct.corrupt_results);

  const auto& history = result.search.history;
  std::printf("Pareto front:\n");
  for (std::size_t idx : result.search.pareto) {
    const auto& r = history[idx];
    std::printf("  model %3d: %.2f%%  %llu FLOPs  %zu epochs\n", r.model_id,
                r.fitness, static_cast<unsigned long long>(r.flops),
                r.epochs_trained);
  }

  // Bit-exact Pareto dump (hexfloat) for the loopback smoke test's
  // cluster-vs-solo comparison.
  const std::string pareto_out = args.get("pareto-out");
  if (!pareto_out.empty()) {
    std::FILE* f = std::fopen(pareto_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "a4nn_cluster: cannot write %s\n",
                   pareto_out.c_str());
      return 1;
    }
    for (std::size_t idx : result.search.pareto) {
      const auto& r = history[idx];
      std::fprintf(f, "%d %a %llu %zu %s\n", r.model_id, r.fitness,
                   static_cast<unsigned long long>(r.flops), r.epochs_trained,
                   r.genome.key().c_str());
    }
    std::fclose(f);
    std::printf("pareto: %s\n", pareto_out.c_str());
  }
  return 0;
}

int run_worker(const util::ArgParser& args, core::WorkflowConfig cfg,
               std::uint32_t config_crc) {
  std::string host = "127.0.0.1";
  std::uint16_t port = static_cast<std::uint16_t>(args.get_size("port"));
  const std::string connect = args.get("connect");
  if (!connect.empty()) {
    const auto colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "a4nn_cluster: --connect expects host:port\n");
      return 1;
    }
    host = connect.substr(0, colon);
    port = static_cast<std::uint16_t>(
        std::strtoul(connect.c_str() + colon + 1, nullptr, 10));
  }
  if (port == 0) {
    std::fprintf(stderr, "a4nn_cluster: worker needs --connect host:port\n");
    return 1;
  }

  // Local-only adjustments AFTER the CRC: a worker-side commons gives
  // re-dispatched jobs their epoch checkpoints to resume from, without
  // changing what the worker computes.
  if (!args.get("worker-commons").empty()) {
    cfg.lineage = lineage::TrackerConfig{args.get("worker-commons"),
                                         args.get_size("snapshot-every")};
    cfg.trainer.resume_partial = true;
  }
  // Mirror the adjustments A4nnWorkflow::run() applies before training.
  cfg.trainer.cost = cfg.cluster.cost;

  std::printf("worker '%s': generating dataset...\n",
              args.get("worker-name").c_str());
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(cfg.dataset);
  cfg.nas.space.classes = data.train.num_classes();

  std::optional<lineage::LineageTracker> tracker;
  if (cfg.lineage) tracker.emplace(*cfg.lineage);
  orchestrator::TrainingLoop loop(data.train, data.validation, cfg.trainer,
                                  tracker ? &*tracker : nullptr);

  cluster::WorkerOptions opts;
  opts.host = host;
  opts.port = port;
  opts.name = args.get("worker-name");
  opts.threads = args.get_size("threads");
  opts.config_crc = config_crc;
  opts.max_reconnects = args.get_size("max-reconnects");
  opts.seed = cfg.seed;
  opts.fault.worker_crash_prob = args.get_double("fault-worker-crash");
  opts.fault.slow_link_prob = args.get_double("fault-slow-link");
  opts.fault.torn_frame_prob = args.get_double("fault-torn");
  opts.fault.enabled = opts.fault.worker_crash_prob > 0 ||
                       opts.fault.slow_link_prob > 0 ||
                       opts.fault.torn_frame_prob > 0;

  const nas::SearchSpaceConfig space = cfg.nas.space;
  cluster::Worker worker(opts);
  // Relay SIGINT/SIGTERM into the worker's stop flag: run() winds down
  // after the in-flight jobs finish, so nothing is lost mid-training.
  std::atomic<bool> watcher_done{false};
  std::thread watcher([&] {
    while (!watcher_done.load()) {
      if (util::shutdown_requested()) {
        worker.request_stop();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  const std::string objective_name(nas::objective_mode_name(cfg.nas.objective));
  const cluster::WorkerStats stats =
      worker.run([&](const cluster::JobRequest& req) {
        // Belt-and-suspenders beyond the handshake CRC: a request whose
        // objective mode disagrees with this worker's flags is a config
        // drift, not a trainable job.
        if (req.objective != objective_name)
          throw std::runtime_error("job " + std::to_string(req.job) +
                                   " requests objective mode '" +
                                   req.objective + "', worker configured '" +
                                   objective_name + "'");
        const nas::Genome genome = nas::Genome::from_json(req.genome);
        const std::uint64_t model_seed = util::hex_to_u64(req.seed_hex);
        nas::EvaluationRecord record =
            loop.train_genome(genome, space, req.model_id, model_seed);
        record.generation = req.generation;
        return record.to_json();
      });
  watcher_done.store(true);
  watcher.join();
  if (util::shutdown_requested())
    std::printf("worker '%s': stopped cleanly on signal %d\n",
                opts.name.c_str(), util::shutdown_signal());

  std::printf(
      "worker '%s': %zu job(s) completed, %zu reconnect(s), %s\n",
      opts.name.c_str(), stats.jobs_completed, stats.reconnects,
      stats.clean_shutdown
          ? "clean shutdown"
          : (!stats.reject_reason.empty() ? stats.reject_reason.c_str()
                                          : "connection lost"));
  if (!stats.reject_reason.empty()) return 2;
  return stats.clean_shutdown ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("a4nn_cluster",
                       "Distributed A4NN over TCP: --master partitions each "
                       "generation across --worker processes; identical "
                       "flags on every node");
  args.add_flag("master", "run the master (search driver)");
  args.add_flag("worker", "run a worker (remote evaluator)");
  // Shared workflow flags (MUST match across master and workers; the
  // handshake rejects mismatches by configuration digest).
  args.add_option("population", "4", "size of starting population");
  args.add_option("offspring", "4", "offspring per generation");
  args.add_option("generations", "3",
                  "evaluation rounds incl. the initial population");
  args.add_option("epochs", "4", "max training epochs per network");
  args.add_option("nodes", "4", "nodes per phase in the search space");
  args.add_option("phases", "3", "phases in the search space");
  args.add_option("intensity", "medium", "beam intensity: low|medium|high");
  args.add_option("images", "60", "simulated images per conformation class");
  args.add_option("pixels", "16", "detector resolution (pixels per side)");
  args.add_flag("no-engine", "disable the prediction engine");
  args.add_option("gpus", "1", "simulated GPU count (virtual schedule)");
  args.add_option("memo", "off",
                  "fitness memo-cache: off|cold|on (master-side replay of "
                  "already-evaluated genomes; never re-dispatches a hit)");
  args.add_option("objective", "flops",
                  "hardware objectives: flops | latency | both (latency is "
                  "probed on the master's own hardware)");
  args.add_flag("allow-duplicates",
                "let crossover/mutation re-produce evaluated genomes");
  args.add_option("seed", "2023", "experiment seed");
  // Master flags.
  args.add_option("bind", "127.0.0.1", "master: address to listen on");
  args.add_option("port", "0",
                  "master: TCP port (0: ephemeral, printed at startup); "
                  "worker: master port when --connect is not given");
  args.add_option("min-workers", "0",
                  "master: wait for this many workers before searching "
                  "(0: start immediately, local fallback covers everything)");
  args.add_option("wait-workers-ms", "10000",
                  "master: how long to wait for --min-workers");
  args.add_option("heartbeat-interval-ms", "200", "master: heartbeat period");
  args.add_option("heartbeat-timeout-ms", "2000",
                  "master: silence before a worker is declared dead");
  args.add_option("max-attempts", "5",
                  "master: dispatch attempts per job before local fallback");
  args.add_option("quarantine-after", "3",
                  "master: worker failures before quarantine");
  args.add_option("backoff-jitter", "0",
                  "master: re-dispatch backoff jitter in [0,1], drawn from "
                  "the run seed");
  args.add_option("fault-partition", "0",
                  "master: injected partition probability per dispatch");
  args.add_option("pareto-out", "",
                  "master: write the Pareto front (hexfloat, bit-exact) here");
  args.add_option("trace-out", "",
                  "master: write a Chrome-trace JSON (cluster lanes on pid 3)");
  // Worker flags.
  args.add_option("connect", "", "worker: master address as host:port");
  args.add_option("worker-name", "worker-0",
                  "worker: stable identity (quarantine key)");
  args.add_option("threads", "1", "worker: concurrent jobs (capacity report)");
  args.add_option("max-reconnects", "10",
                  "worker: consecutive connect failures before giving up");
  args.add_option("worker-commons", "",
                  "worker: commons dir for epoch checkpoints (re-dispatched "
                  "jobs resume instead of retraining; empty: off)");
  args.add_option("snapshot-every", "1",
                  "worker: checkpoint every N epochs into --worker-commons");
  args.add_option("fault-worker-crash", "0",
                  "worker: injected crash probability after each job");
  args.add_option("fault-slow-link", "0",
                  "worker: injected slow-link probability per result");
  // Shared fault flag (either side can tear frames).
  args.add_option("fault-torn", "0",
                  "injected torn-frame probability per send");
  args.add_option("intra-op-threads", "0",
                  "worker threads per training kernel (0: env/default)");

  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }
  if (args.get_flag("master") == args.get_flag("worker")) {
    std::fprintf(stderr, "a4nn_cluster: pass exactly one of --master or "
                         "--worker\n%s", args.usage().c_str());
    return 1;
  }
  if (args.get_size("intra-op-threads") > 0)
    tensor::set_intra_op_threads(args.get_size("intra-op-threads"));
  util::install_shutdown_handlers();

  core::WorkflowConfig cfg = build_config(args);
  // Digest over the canonical configuration JSON: both sides compute it
  // from the same flags before any local-only adjustment.
  const std::uint32_t config_crc = util::crc32(cfg.to_json().dump());

  return args.get_flag("master") ? run_master(args, std::move(cfg), config_crc)
                                 : run_worker(args, std::move(cfg), config_crc);
}
