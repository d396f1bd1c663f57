// Search-time fitness memoization.
//
// NSGA-II crossover/mutation re-produces genomes — across generations,
// across --resume restarts, and across cluster re-dispatches. Training is
// deterministic given (genome, seed), so re-training a genome that already
// has a journaled record is pure waste. The FitnessMemo keys every
// successful evaluation by the genome's canonical 64-bit digest
// (Genome::digest) and resolves re-appearances to an O(1) lookup over the
// records the LineageTracker already journals (A4NNF1-framed, CRC-checked
// — the manifest journal IS the cache's durable form; `memo_index.json`
// summarizes it per run as a journaled artifact).
//
// Bit-exactness contract: with memoization the per-model training seed is
// derived from the genome digest instead of the model id (memo_model_seed),
// so a duplicate genome trained from scratch produces the byte-identical
// learning curve its cached twin carries. MemoMode::kCold runs the same
// genome-keyed seeding with reuse disabled — the differential tests in
// tests/test_memo_cache.cpp prove kCold and kOn runs produce identical
// Pareto fronts, commons records, and lineage facts (only wall-clock
// fields differ). Failed records never enter the cache (PR 4 semantics: a
// failure marker holds no result worth replaying). Neither do inherited
// records, and a child about to warm-start is never served a hit: a
// warm-started evaluation is a function of (genome, ancestor), not of the
// genome alone, so under --inherit-weights the cache covers exactly the
// parentless from-scratch evaluations — the subset where replay is provably
// equivalent.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>

#include "nas/evaluator.hpp"

namespace a4nn::nas {

/// How the evaluation accelerator runs.
///   kOff  — legacy behavior: per-model-id seeds, no cache (the default;
///           preserves every pre-memo result bit-for-bit).
///   kCold — genome-keyed seeds, cache bookkeeping, but no result reuse:
///           the control arm of the differential tests and benches.
///   kOn   — genome-keyed seeds + O(1) reuse of journaled evaluations.
enum class MemoMode { kOff, kCold, kOn };

const char* memo_mode_name(MemoMode mode);
/// Parse "off" | "cold" | "on"; throws std::invalid_argument otherwise.
MemoMode memo_mode_from_name(const std::string& name);

/// Per-model training seed under genome-keyed seeding: depends only on the
/// run seed and the architecture, never on the model id, so two models
/// with the same genome train bit-identically.
std::uint64_t memo_model_seed(std::uint64_t run_seed, const Genome& genome);

class FitnessMemo {
 public:
  explicit FitnessMemo(MemoMode mode) : mode_(mode) {}

  MemoMode mode() const { return mode_; }
  bool reuse_enabled() const { return mode_ == MemoMode::kOn; }

  /// Record a finished evaluation. Failed records are rejected (never
  /// cache hits), and so are inherited records: a warm-started child's
  /// curves depend on its ancestor, so replaying one for a duplicate bred
  /// from a different parent would break kCold == kOn bit-identity. The
  /// first model to train a genome from scratch stays its canonical
  /// source. Insertion happens in both kCold and kOn so the canonical
  /// model map (weight-inheritance fallback) is mode-independent.
  void insert(const EvaluationRecord& record);

  /// Warm the cache from journaled commons records (resume / shared
  /// commons). Equivalent to inserting each in order.
  void warm(std::span<const EvaluationRecord> records);

  /// O(1) cache lookup. Returns the canonical record when reuse is
  /// enabled and the genome was already evaluated (exact key match behind
  /// the digest, so a digest collision degrades to a miss, never a wrong
  /// record). Null otherwise.
  const EvaluationRecord* lookup(const Genome& genome) const;

  /// Canonical model id that trained this genome (-1 if never trained).
  /// Available in every mode != kOff: lets weight inheritance fall back to
  /// the model that actually wrote snapshots when the requested ancestor
  /// was itself a cache hit.
  int canonical_model(const Genome& genome) const;
  /// Same, by the digest of a model already inserted (-1 when unknown).
  int canonical_model_of(int model_id) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;  // full canonical key, verified behind the digest
    EvaluationRecord record;
  };

  MemoMode mode_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<int, std::uint64_t> model_digest_;
};

/// Deterministic summary of a run's evaluations: digest -> canonical model
/// id + fitness/flops, sorted by digest, first successful record per
/// genome winning. Built purely from the journaled history — never from
/// in-memory cache state — so kCold and kOn runs of the same configuration
/// produce byte-identical indexes (the differential suite diffs them).
/// Journaled as `memo_index.json` through the LineageTracker.
util::Json memo_index_json(std::span<const EvaluationRecord> history);

}  // namespace a4nn::nas
