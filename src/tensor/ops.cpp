#include "tensor/ops.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "tensor/autotune.hpp"
#include "tensor/scratch.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace a4nn::tensor {

void axpy(float alpha, std::span<const float> x, std::span<float> out) {
  if (x.size() != out.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) out[i] += alpha * x[i];
}

Tensor add(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("add: shape mismatch");
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] + b[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("mul: shape mismatch");
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] * b[i];
  return out;
}

void scale(Tensor& t, float alpha) {
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] *= alpha;
}

double sum(const Tensor& t) {
  double acc = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) acc += t[i];
  return acc;
}

std::size_t argmax(std::span<const float> xs) {
  if (xs.empty()) throw std::invalid_argument("argmax: empty input");
  return static_cast<std::size_t>(
      std::max_element(xs.begin(), xs.end()) - xs.begin());
}

// --------------------------------------------------------------- GEMM
//
// One packed, cache-blocked driver serves every public variant. Transposed
// operands differ only in how the pack step gathers elements; after
// packing, the microkernel sees identical contiguous panels, so every
// variant gets the same inner loop and the same summation order.

namespace {

// Register tile (MR x NR accumulator): NR is one 16-lane float vector (a
// zmm register, or an emulated pair of ymm); MR = 6 keeps the accumulator
// tile inside the register file even on 256-bit hardware. The cache blocks
// (MC x KC A-tile in L2, KC x NR B-strips streaming from L1) are runtime
// values from TileConfig — hand-fixed defaults, overridable per (k, n) by
// the autotuner's tuned table.
constexpr std::size_t MR = kGemmMR;
constexpr std::size_t NR = kGemmNR;

// 16-lane float vector for the microkernel. GCC/Clang lower this to the
// widest SIMD the target has (one zmm, two ymm, or four xmm); lane-wise
// arithmetic keeps the exact per-element summation order of the scalar
// fallback, so results stay deterministic either way.
#if defined(__GNUC__) || defined(__clang__)
#define A4NN_VECTOR_KERNEL 1
typedef float vf16 __attribute__((vector_size(64)));
static_assert(NR * sizeof(float) == 64);
#endif

// The invariants TileConfig.small_row_flops and .kc are bound by: the
// small/blocked choice compares n*k (never m), and KC groups each row's
// k-panel partials identically at any m — so one output row is
// bit-identical whether it was computed alone or inside any larger batch.
// The serving engine's batch-size-invariance guarantee rests on this,
// which is why the tuned table below is keyed on (k, n) alone and why
// tile_config_for must never consult m.

// Tuned blocking, keyed by packed (k, n). Installed once at startup
// (set_tuned_tile_configs); read-only while kernels run, so the lookup
// needs no lock. Empty means "defaults everywhere".
using TileTable = std::unordered_map<std::uint64_t, TileConfig>;

TileTable& tile_table() {
  static TileTable table;
  return table;
}

constexpr TileConfig kDefaultTiles{};

inline std::uint64_t kn_key(std::size_t k, std::size_t n) {
  return (static_cast<std::uint64_t>(k) << 32) |
         static_cast<std::uint64_t>(n & 0xffffffffu);
}

inline std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

// Element accessors: `trans` means the buffer stores the mathematical
// operand transposed (A_t is (k x m); B_t is (n x k)).
inline float load_a(const float* a, bool trans, std::size_t m, std::size_t k,
                    std::size_t i, std::size_t kk) {
  return trans ? a[kk * m + i] : a[i * k + kk];
}
inline float load_b(const float* b, bool trans, std::size_t k, std::size_t n,
                    std::size_t kk, std::size_t j) {
  return trans ? b[j * k + kk] : b[kk * n + j];
}

// Pack an (mc x kc) tile of A into MR-row strips:
// out[s*kc*MR + kk*MR + r] = A(m0 + s*MR + r, k0 + kk), zero-padded rows.
void pack_a_tile(const float* a, bool trans, std::size_t m, std::size_t k,
                 std::size_t m0, std::size_t mc, std::size_t k0,
                 std::size_t kc, float* out) {
  const std::size_t strips = (mc + MR - 1) / MR;
  for (std::size_t s = 0; s < strips; ++s) {
    float* dst = out + s * kc * MR;
    for (std::size_t kk = 0; kk < kc; ++kk) {
      for (std::size_t r = 0; r < MR; ++r) {
        const std::size_t row = s * MR + r;
        dst[kk * MR + r] =
            row < mc ? load_a(a, trans, m, k, m0 + row, k0 + kk) : 0.0f;
      }
    }
  }
}

#if defined(A4NN_VECTOR_KERNEL) && !defined(__clang__)
#define A4NN_VECTOR_TRANSPOSE 1
typedef int vi16 __attribute__((vector_size(64)));

// One stage of an in-register 16x16 transpose: swaps the off-diagonal
// S x S blocks of every 2S x 2S block. Stages 8, 4, 2, 1 transpose.
template <int S>
inline void transpose_stage(vf16 (&m)[NR]) {
  static const auto masks = [] {
    std::pair<vi16, vi16> lo_hi;
    for (int l = 0; l < 16; ++l) {
      const bool low = (l & S) == 0;
      lo_hi.first[l] = low ? l : l - S + 16;
      lo_hi.second[l] = low ? l + S : l + 16;
    }
    return lo_hi;
  }();
  for (std::size_t r = 0; r < NR; ++r) {
    if (r & S) continue;
    const vf16 a = m[r], b = m[r + S];
    m[r] = __builtin_shuffle(a, b, masks.first);
    m[r + S] = __builtin_shuffle(a, b, masks.second);
  }
}
#endif

// Pack a (kc x nc) tile of B into NR-column strips:
// out[s*kc*NR + kk*NR + c] = B(k0 + kk, n0 + s*NR + c), zero-padded cols.
void pack_b_tile(const float* b, bool trans, std::size_t k, std::size_t n,
                 std::size_t k0, std::size_t kc, std::size_t n0,
                 std::size_t nc, float* out) {
  const std::size_t strips = (nc + NR - 1) / NR;
  for (std::size_t s = 0; s < strips; ++s) {
    float* dst = out + s * kc * NR;
    std::size_t kk = 0;
#ifdef A4NN_VECTOR_TRANSPOSE
    // B_t holds each B column contiguously: load 16 columns x 16 k-steps
    // as rows, transpose in registers, store 16 panel rows. Same bytes as
    // the element loop below, which finishes the kc % 16 tail.
    if (trans) {
      const std::size_t real = std::min(NR, nc - s * NR);
      for (; kk + NR <= kc; kk += NR) {
        vf16 m[NR];
        for (std::size_t c = 0; c < NR; ++c) {
          if (c < real) {
            __builtin_memcpy(&m[c], b + (n0 + s * NR + c) * k + k0 + kk,
                             sizeof(vf16));
          } else {
            m[c] = vf16{};
          }
        }
        transpose_stage<8>(m);
        transpose_stage<4>(m);
        transpose_stage<2>(m);
        transpose_stage<1>(m);
        for (std::size_t t = 0; t < NR; ++t)
          __builtin_memcpy(dst + (kk + t) * NR, &m[t], sizeof(vf16));
      }
    }
#endif
    for (; kk < kc; ++kk) {
      for (std::size_t c = 0; c < NR; ++c) {
        const std::size_t col = s * NR + c;
        dst[kk * NR + c] =
            col < nc ? load_b(b, trans, k, n, k0 + kk, n0 + col) : 0.0f;
      }
    }
  }
}

// acc(MR x NR) = Apanel(kc x MR) * Bpanel(kc x NR), acc zeroed by the
// caller. The accumulator tile lives in MR vector registers for the whole
// k-loop; each step broadcasts one A element per row against the same
// B vector (a register-resident rank-1 update chain).
#ifdef A4NN_VECTOR_KERNEL
inline void tile_product(std::size_t kc, const float* __restrict ap,
                         const float* __restrict bp, vf16 (&c)[MR]) {
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * MR;
    vf16 b;
    __builtin_memcpy(&b, bp + kk * NR, sizeof b);
    for (std::size_t r = 0; r < MR; ++r) c[r] += arow[r] * b;
  }
}
#endif

inline void micro_kernel(std::size_t kc, const float* __restrict ap,
                         const float* __restrict bp, float* __restrict acc) {
#ifdef A4NN_VECTOR_KERNEL
  vf16 c[MR] = {};
  tile_product(kc, ap, bp, c);
  for (std::size_t r = 0; r < MR; ++r)
    __builtin_memcpy(acc + r * NR, &c[r], sizeof(vf16));
#else
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * MR;
    const float* brow = bp + kk * NR;
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = arow[r];
      float* accrow = acc + r * NR;
      for (std::size_t c = 0; c < NR; ++c) accrow[c] += av * brow[c];
    }
  }
#endif
}

#ifdef A4NN_VECTOR_KERNEL
// micro_kernel plus write_tile for a full MR x NR tile at C(i0, j0): the
// accumulators go from registers into C without the staging tile, and the
// epilogue runs lane-wise with write_tile's per-element operations in
// write_tile's order, so the stored values are the same.
inline void micro_kernel_to_c(std::size_t kc, const float* __restrict ap,
                              const float* __restrict bp, float* cmat,
                              std::size_t n, std::size_t i0, std::size_t j0,
                              bool overwrite, const Epilogue* ep) {
  vf16 c[MR] = {};
  tile_product(kc, ap, bp, c);
  vf16 col_bias = {};
  if (ep && ep->bias == Epilogue::Bias::kPerCol)
    __builtin_memcpy(&col_bias, ep->bias_data + j0, sizeof col_bias);
  for (std::size_t r = 0; r < MR; ++r) {
    float* crow = cmat + (i0 + r) * n + j0;
    vf16 v = c[r];
    if (!overwrite) {
      vf16 old;
      __builtin_memcpy(&old, crow, sizeof old);
      v = old + v;
    }
    if (ep) {
      if (ep->bias == Epilogue::Bias::kPerCol) {
        v += col_bias;
      } else {
        const float row_bias = ep->bias == Epilogue::Bias::kPerRow
                                   ? ep->bias_data[i0 + r]
                                   : 0.0f;
        v += row_bias;
      }
      if (ep->relu) v = v < 0.0f ? vf16{} : v;
    }
    __builtin_memcpy(crow, &v, sizeof v);
  }
}
#endif

// Commit one accumulator tile to C; fuses the epilogue on the final
// k-block so biased/activated outputs never need a second pass.
inline void write_tile(float* cmat, std::size_t n, std::size_t i0,
                       std::size_t j0, std::size_t rows, std::size_t cols,
                       const float* acc, bool overwrite, const Epilogue* ep) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = cmat + (i0 + r) * n + j0;
    const float* arow = acc + r * NR;
    const float row_bias =
        ep && ep->bias == Epilogue::Bias::kPerRow ? ep->bias_data[i0 + r]
                                                  : 0.0f;
    for (std::size_t cc = 0; cc < cols; ++cc) {
      float v = overwrite ? arow[cc] : crow[cc] + arow[cc];
      if (ep) {
        v += ep->bias == Epilogue::Bias::kPerCol ? ep->bias_data[j0 + cc]
                                                 : row_bias;
        if (ep->relu && v < 0.0f) v = 0.0f;
      }
      crow[cc] = v;
    }
  }
}

void epilogue_pass(float* c, std::size_t m, std::size_t n,
                   const Epilogue& ep) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * n;
    const float row_bias =
        ep.bias == Epilogue::Bias::kPerRow ? ep.bias_data[i] : 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      float v = row[j];
      v += ep.bias == Epilogue::Bias::kPerCol ? ep.bias_data[j] : row_bias;
      if (ep.relu && v < 0.0f) v = 0.0f;
      row[j] = v;
    }
  }
}

// Unblocked path for tiny problems.
void small_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
                bool at, const float* b, bool bt, float* c, bool accumulate,
                const Epilogue* ep) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (bt && !at) {
    // Row-dot-row: both operands stream contiguously.
    for (std::size_t i = 0; i < m; ++i) {
      const float* a_row = a + i * k;
      float* c_row = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float* b_row = b + j * k;
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
        c_row[j] += acc;
      }
    }
  } else {
    // i-k-j: C rows and B rows stream (B gathered when transposed).
    for (std::size_t i = 0; i < m; ++i) {
      float* c_row = c + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float a_ik = load_a(a, at, m, k, i, kk);
        if (a_ik == 0.0f) continue;
        for (std::size_t j = 0; j < n; ++j)
          c_row[j] += a_ik * load_b(b, bt, k, n, kk, j);
      }
    }
  }
  if (ep) epilogue_pass(c, m, n, *ep);
}

// The cache-blocked macrokernel, parameterized over how B panels are
// produced: pack_b(k0, kc, n0, nc, out) fills a (kc x nc) tile in NR-column
// strips. The GEMM variants gather from a materialized B; the direct
// convolution gathers straight from the image. Everything downstream of
// the packed panels — loop order, microkernel, writeback — is shared, so
// two packers producing identical panel bytes produce identical results.
template <typename PackB>
void blocked_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  bool at, float* c, bool accumulate, const Epilogue* ep,
                  const TileConfig& t, PackB&& pack_b) {
  const std::size_t MC = t.mc, KC = t.kc, NC = t.nc;
  ScratchScope scratch;
  float* bpack =
      scratch.alloc(std::min(k, KC) * round_up(std::min(n, NC), NR)).data();
  float* apack =
      scratch.alloc(std::min(k, KC) * round_up(std::min(m, MC), MR)).data();

  for (std::size_t k0 = 0; k0 < k; k0 += KC) {
    const std::size_t kc = std::min(KC, k - k0);
    const bool first_kb = k0 == 0;
    const bool last_kb = k0 + kc == k;
    for (std::size_t n0 = 0; n0 < n; n0 += NC) {
      const std::size_t nc = std::min(NC, n - n0);
      pack_b(k0, kc, n0, nc, bpack);
      const std::size_t nstrips = (nc + NR - 1) / NR;
      for (std::size_t m0 = 0; m0 < m; m0 += MC) {
        const std::size_t mc = std::min(MC, m - m0);
        pack_a_tile(a, at, m, k, m0, mc, k0, kc, apack);
        const std::size_t mstrips = (mc + MR - 1) / MR;
        for (std::size_t ms = 0; ms < mstrips; ++ms) {
          const std::size_t rows = std::min(MR, mc - ms * MR);
          for (std::size_t ns = 0; ns < nstrips; ++ns) {
            const std::size_t cols = std::min(NR, nc - ns * NR);
            const float* ap = apack + ms * kc * MR;
            const float* bp = bpack + ns * kc * NR;
            const bool overwrite = first_kb && !accumulate;
            const Epilogue* tile_ep = last_kb ? ep : nullptr;
#ifdef A4NN_VECTOR_KERNEL
            if (rows == MR && cols == NR) {
              micro_kernel_to_c(kc, ap, bp, c, n, m0 + ms * MR, n0 + ns * NR,
                                overwrite, tile_ep);
              continue;
            }
#endif
            alignas(64) float acc[MR * NR] = {};
            micro_kernel(kc, ap, bp, acc);
            write_tile(c, n, m0 + ms * MR, n0 + ns * NR, rows, cols, acc,
                       overwrite, tile_ep);
          }
        }
      }
    }
  }
}

void count_gemm_call(std::size_t m, std::size_t k, std::size_t n) {
  // GEMM is the innermost hot path, so per-call accounting is gated on
  // tracing being live; a bare run pays only one relaxed atomic load.
  if (!util::trace::enabled()) return;
  auto& registry = util::metrics::global();
  registry.counter("gemm.calls").add();
  registry.counter("gemm.flops")
      .add(2.0 * static_cast<double>(m) * static_cast<double>(k) *
           static_cast<double>(n));
  registry.gauge("gemm.scratch_high_water_floats")
      .update_max(static_cast<double>(ScratchArena::tls().high_water()));
}

void gemm_driver(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 bool at, const float* b, bool bt, float* c, bool accumulate,
                 const Epilogue* ep, const TileConfig* forced = nullptr) {
  // First GEMM of the process installs A4NN_TUNE (if set); afterwards this
  // is one relaxed atomic load inside std::call_once.
  ensure_env_tune_loaded();
  count_gemm_call(m, k, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    if (ep) epilogue_pass(c, m, n, *ep);
    return;
  }
  const TileConfig& t = forced ? *forced : tile_config_for(k, n);
  if (n * k <= t.small_row_flops) {
    small_gemm(m, k, n, a, at, b, bt, c, accumulate, ep);
    return;
  }
  blocked_gemm(m, k, n, a, at, c, accumulate, ep, t,
               [&](std::size_t k0, std::size_t kc, std::size_t n0,
                   std::size_t nc, float* out) {
                 pack_b_tile(b, bt, k, n, k0, kc, n0, nc, out);
               });
}

}  // namespace

void validate_tile_config(const TileConfig& config) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("TileConfig: " + what);
  };
  if (config.mc == 0 || config.mc % kGemmMR != 0)
    fail("mc (" + std::to_string(config.mc) +
         ") must be a positive multiple of MR=" + std::to_string(kGemmMR));
  if (config.nc == 0 || config.nc % kGemmNR != 0)
    fail("nc (" + std::to_string(config.nc) +
         ") must be a positive multiple of NR=" + std::to_string(kGemmNR));
  if (config.kc == 0) fail("kc must be positive");
}

void set_tuned_tile_configs(const std::vector<TunedTileEntry>& entries) {
  TileTable table;
  table.reserve(entries.size());
  for (const TunedTileEntry& e : entries) {
    if (e.k == 0 || e.n == 0)
      throw std::invalid_argument("TunedTileEntry: zero (k, n) key");
    validate_tile_config(e.config);
    if (!table.emplace(kn_key(e.k, e.n), e.config).second)
      throw std::invalid_argument(
          "TunedTileEntry: duplicate (k=" + std::to_string(e.k) +
          ", n=" + std::to_string(e.n) +
          ") key — one shape must map to one config (batch invariance)");
  }
  tile_table() = std::move(table);
}

void clear_tuned_tile_configs() { tile_table().clear(); }

const TileConfig& tile_config_for(std::size_t k, std::size_t n) {
  const TileTable& table = tile_table();
  if (table.empty()) return kDefaultTiles;
  const auto it = table.find(kn_key(k, n));
  return it == table.end() ? kDefaultTiles : it->second;
}

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c) {
  gemm_driver(m, k, n, a, false, b, false, c, /*accumulate=*/false, nullptr);
}

void gemm_accumulate(std::size_t m, std::size_t k, std::size_t n,
                     const float* a, const float* b, float* c) {
  gemm_driver(m, k, n, a, false, b, false, c, /*accumulate=*/true, nullptr);
}

void gemm_ex(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, const Epilogue& epilogue) {
  gemm_driver(m, k, n, a, false, b, false, c, /*accumulate=*/false, &epilogue);
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a_t,
               const float* b, float* c) {
  gemm_driver(m, k, n, a_t, true, b, false, c, /*accumulate=*/false, nullptr);
}

void gemm_at_b_acc(std::size_t m, std::size_t k, std::size_t n,
                   const float* a_t, const float* b, float* c) {
  gemm_driver(m, k, n, a_t, true, b, false, c, /*accumulate=*/true, nullptr);
}

namespace {

// Blocking for a GEMM folded over `images` column blocks of `cols` columns:
// the per-image call's config, on the blocked path, with KC widened to k
// where the per-image call would take the small path (see ops.hpp).
TileConfig folded_config(std::size_t k, std::size_t cols) {
  ensure_env_tune_loaded();
  TileConfig t = tile_config_for(k, cols);
  if (cols * k <= t.small_row_flops) t.kc = std::max(t.kc, k);
  t.small_row_flops = 0;
  return t;
}

}  // namespace

void gemm_ex_folded(std::size_t m, std::size_t k, std::size_t cols,
                    std::size_t images, const float* a, const float* b,
                    float* c, const Epilogue& epilogue) {
  const TileConfig t = folded_config(k, cols);
  gemm_driver(m, k, images * cols, a, false, b, false, c,
              /*accumulate=*/false, &epilogue, &t);
}

void gemm_at_b_folded(std::size_t m, std::size_t k, std::size_t cols,
                      std::size_t images, const float* a_t, const float* b,
                      float* c) {
  const TileConfig t = folded_config(k, cols);
  gemm_driver(m, k, images * cols, a_t, true, b, false, c,
              /*accumulate=*/false, nullptr, &t);
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b_t, float* c) {
  gemm_driver(m, k, n, a, false, b_t, true, c, /*accumulate=*/false, nullptr);
}

void gemm_a_bt_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                   const float* b_t, float* c) {
  gemm_driver(m, k, n, a, false, b_t, true, c, /*accumulate=*/true, nullptr);
}

void gemm_a_bt_ex(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  const float* b_t, float* c, const Epilogue& epilogue) {
  gemm_driver(m, k, n, a, false, b_t, true, c, /*accumulate=*/false, &epilogue);
}

void gemm_with_config(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c,
                      const TileConfig& config) {
  validate_tile_config(config);
  gemm_driver(m, k, n, a, false, b, false, c, /*accumulate=*/false, nullptr,
              &config);
}

void gemm_a_bt_with_config(std::size_t m, std::size_t k, std::size_t n,
                           const float* a, const float* b_t, float* c,
                           const TileConfig& config) {
  validate_tile_config(config);
  gemm_driver(m, k, n, a, false, b_t, true, c, /*accumulate=*/false, nullptr,
              &config);
}

void gemm_naive(std::size_t m, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c) {
  std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float a_ik = a_row[kk];
      if (a_ik == 0.0f) continue;
      const float* b_row = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
    }
  }
}

void ConvGeometry::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("ConvGeometry: " + what);
  };
  if (in_channels == 0 || in_h == 0 || in_w == 0)
    fail("zero input extent (" + std::to_string(in_channels) + "x" +
         std::to_string(in_h) + "x" + std::to_string(in_w) + ")");
  if (kernel == 0) fail("zero kernel");
  if (stride == 0) fail("zero stride");
  if (pad >= kernel)
    fail("padding (" + std::to_string(pad) + ") >= receptive extent (" +
         std::to_string(kernel) +
         "): border outputs would read only padding");
  if (in_h + 2 * pad < kernel || in_w + 2 * pad < kernel)
    fail("output dims truncate to zero: input " + std::to_string(in_h) + "x" +
         std::to_string(in_w) + " + 2*pad " + std::to_string(pad) +
         " is smaller than kernel " + std::to_string(kernel));
}

namespace {

// Same-size stride-1 geometries (2*pad == kernel-1: the 3x3 pad-1 and 1x1
// pad-0 convolutions of the search space): output pixel p of im2col row
// (c, ky, kx) reads input pixel p + dy*W + dx of plane c, with
// dy = ky - pad and dx = kx - pad, so each row is one shifted block of the
// plane. In that flat block, output columns whose input column falls off
// the left or right edge wrap into a neighbouring image row; those and the
// padding bands above and below are zero.
bool same_size_stride1(const ConvGeometry& g) {
  return g.stride == 1 && 2 * g.pad + 1 == g.kernel;
}

// Output indices [lo, hi) along one axis of `size` pixels whose input index
// out + shift is in range; lo == hi when the shift clears the axis.
struct ValidRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

ValidRange valid_range(std::ptrdiff_t shift, std::size_t size) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(size);
  const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-shift, 0, n);
  const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(n - shift, lo, n);
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

// Pure data movement, so the bytes equal the per-element loop's.
void im2col_same_size(const ConvGeometry& g, const float* image,
                      float* columns, std::size_t row_stride) {
  const std::size_t w = g.in_w;
  const std::size_t plane_size = g.in_h * w;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(g.pad);
  float* out = columns;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * plane_size;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(ky) - pad;
      const ValidRange ys = valid_range(dy, g.in_h);
      for (std::size_t kx = 0; kx < g.kernel; ++kx, out += row_stride) {
        const std::ptrdiff_t dx = static_cast<std::ptrdiff_t>(kx) - pad;
        const ValidRange xs = valid_range(dx, w);
        if (ys.lo == ys.hi || xs.lo == xs.hi) {
          std::memset(out, 0, plane_size * sizeof(float));
          continue;
        }
        // One copy from the first to the last in-range pixel; the wrapped
        // edge columns it also fills are zeroed below.
        const std::size_t first = ys.lo * w + xs.lo;
        const std::size_t last = (ys.hi - 1) * w + xs.hi;
        std::memset(out, 0, first * sizeof(float));
        const std::ptrdiff_t shift = dy * static_cast<std::ptrdiff_t>(w) + dx;
        std::memcpy(out + first,
                    plane + (static_cast<std::ptrdiff_t>(first) + shift),
                    (last - first) * sizeof(float));
        std::memset(out + last, 0, (plane_size - last) * sizeof(float));
        // Zero the wrapped columns, |dx| per row, at one edge.
        const std::size_t edge = dx < 0 ? 0 : xs.hi;
        for (std::size_t ox = edge; ox < edge + w - (xs.hi - xs.lo); ++ox)
          for (std::size_t oy = ys.lo; oy < ys.hi; ++oy)
            out[oy * w + ox] = 0.0f;
      }
    }
  }
}

void add_block(float* __restrict dst, const float* __restrict src,
               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

// Each im2col row adds to every image pixel at most once, and the rows are
// visited in the per-element loop's order, so every pixel accumulates the
// same terms in the same order: the sums are bit-identical. A row is added
// as one shifted block; the pixels its wrapped edge columns land on are
// saved before and restored after, so they keep exactly their old bytes.
void col2im_same_size(const ConvGeometry& g, const float* columns,
                      std::size_t row_stride, float* image_grad) {
  const std::size_t w = g.in_w;
  const std::size_t plane_size = g.in_h * w;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(g.pad);
  ScratchScope scratch;
  float* saved = scratch.alloc(g.in_h * g.pad).data();
  const float* col = columns;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image_grad + c * plane_size;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(ky) - pad;
      const ValidRange ys = valid_range(dy, g.in_h);
      for (std::size_t kx = 0; kx < g.kernel; ++kx, col += row_stride) {
        const std::ptrdiff_t dx = static_cast<std::ptrdiff_t>(kx) - pad;
        const ValidRange xs = valid_range(dx, w);
        if (ys.lo == ys.hi || xs.lo == xs.hi) continue;
        const std::size_t first = ys.lo * w + xs.lo;
        const std::size_t last = (ys.hi - 1) * w + xs.hi;
        float* const dst =
            plane + (static_cast<std::ptrdiff_t>(first) +
                     dy * static_cast<std::ptrdiff_t>(w) + dx);
        // The wrapped columns between two rows of the block: `gap` of them
        // (|dx|), starting just past each row's last in-range column.
        const std::size_t gap = w - (xs.hi - xs.lo);
        const std::size_t seams = ys.hi - ys.lo - 1;
        const std::size_t seam0 = xs.hi - xs.lo;  // block offset of seam 0
        for (std::size_t j = 0; j < gap; ++j)
          for (std::size_t sm = 0; sm < seams; ++sm)
            saved[j * seams + sm] = dst[seam0 + sm * w + j];
        add_block(dst, col + first, last - first);
        for (std::size_t j = 0; j < gap; ++j)
          for (std::size_t sm = 0; sm < seams; ++sm)
            dst[seam0 + sm * w + j] = saved[j * seams + sm];
      }
    }
  }
}

}  // namespace

void im2col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> columns) {
  g.validate();
  const std::size_t cols = g.out_h() * g.out_w();
  if (columns.size() != g.patch_size() * cols)
    throw std::invalid_argument("im2col: column buffer size mismatch");
  im2col(g, image, columns, cols);
}

void im2col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> columns, std::size_t row_stride) {
  g.validate();
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t cols = oh * ow;
  if (image.size() != g.in_channels * g.in_h * g.in_w)
    throw std::invalid_argument("im2col: image size mismatch");
  if (row_stride < cols ||
      columns.size() < (g.patch_size() - 1) * row_stride + cols)
    throw std::invalid_argument("im2col: column buffer size mismatch");
  if (same_size_stride1(g)) {
    im2col_same_size(g, image.data(), columns.data(), row_stride);
    return;
  }

  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image.data() + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out_row = columns.data() + row * row_stride;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          // Input y for this output row (may fall in the padding band).
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            std::memset(out_row + oy * ow, 0, ow * sizeof(float));
            continue;
          }
          const float* in_row = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            out_row[oy * ow + ox] =
                (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
                    ? 0.0f
                    : in_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void col2im(const ConvGeometry& g, std::span<const float> columns,
            std::span<float> image_grad) {
  g.validate();
  const std::size_t cols = g.out_h() * g.out_w();
  if (columns.size() != g.patch_size() * cols)
    throw std::invalid_argument("col2im: column buffer size mismatch");
  col2im(g, columns, image_grad, cols);
}

void col2im(const ConvGeometry& g, std::span<const float> columns,
            std::span<float> image_grad, std::size_t row_stride) {
  g.validate();
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t cols = oh * ow;
  if (image_grad.size() != g.in_channels * g.in_h * g.in_w)
    throw std::invalid_argument("col2im: image size mismatch");
  if (row_stride < cols ||
      columns.size() < (g.patch_size() - 1) * row_stride + cols)
    throw std::invalid_argument("col2im: column buffer size mismatch");
  if (same_size_stride1(g)) {
    col2im_same_size(g, columns.data(), row_stride, image_grad.data());
    return;
  }

  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image_grad.data() + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in_row_base = columns.data() + row * row_stride;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          float* out_row = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            out_row[static_cast<std::size_t>(ix)] += in_row_base[oy * ow + ox];
          }
        }
      }
    }
  }
}

// ------------------------------------------------- direct 3x3 convolution

namespace {

// Pack a (kc x nc) tile of the IMPLICIT im2col matrix of `image` (3x3
// kernel, stride 1) into NR-column strips — byte-for-byte what
// pack_b_tile() would produce from a materialized im2col buffer, gathered
// straight from the image instead. Each im2col row k0+kk is one fixed
// (channel, ky, kx); along an output row the input column advances in
// lockstep with the output column, so the interior of every strip row is a
// straight memcpy from the image with explicit zero runs for the padding
// bands.
void pack_b_conv3x3_tile(const float* image, const ConvGeometry& g,
                         std::size_t k0, std::size_t kc, std::size_t n0,
                         std::size_t nc, float* out) {
  const std::size_t ow = g.out_w();
  const std::size_t strips = (nc + NR - 1) / NR;
  const std::ptrdiff_t in_h = static_cast<std::ptrdiff_t>(g.in_h);
  const std::ptrdiff_t in_w = static_cast<std::ptrdiff_t>(g.in_w);
  const std::size_t plane_size = g.in_h * g.in_w;
  for (std::size_t s = 0; s < strips; ++s) {
    float* dst = out + s * kc * NR;
    const std::size_t col0 = s * NR;
    // Real (non-pad-to-strip) columns of this strip; trailing columns are
    // zeroed to mirror pack_b_tile's zero padding.
    const std::size_t real =
        col0 < nc ? std::min<std::size_t>(NR, nc - col0) : 0;
    // Output pixel of the strip's first column — the only divisions in the
    // routine; the row loop advances (oy, ox) and (c, ky, kx) by increment.
    const std::size_t j0 = n0 + col0;
    const std::size_t oy0 = j0 / ow;
    const std::size_t ox0 = j0 % ow;
    std::size_t c = k0 / 9;
    std::size_t ky = (k0 % 9) / 3;
    std::size_t kx = k0 % 3;
    const float* plane = image + c * plane_size;
    for (std::size_t kk = 0; kk < kc; ++kk) {
      float* drow = dst + kk * NR;
      if (real < NR)
        std::memset(drow + real, 0, (NR - real) * sizeof(float));
      // ix = ox + kx - pad is valid for ox in [pad-kx, in_w-kx+pad).
      const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kx) -
                                   static_cast<std::ptrdiff_t>(g.pad);
      std::size_t oy = oy0;
      std::size_t ox = ox0;
      std::size_t cc = 0;
      while (cc < real) {
        // Columns [cc, cc+run) share output row oy.
        const std::size_t run = std::min(ow - ox, real - cc);
        const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                  static_cast<std::ptrdiff_t>(g.pad);
        float* d = drow + cc;
        if (iy < 0 || iy >= in_h) {
          std::memset(d, 0, run * sizeof(float));
        } else {
          const float* in_row = plane + static_cast<std::size_t>(iy) * g.in_w;
          const std::ptrdiff_t lo =
              std::max<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(ox),
                                       -shift);
          const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
              static_cast<std::ptrdiff_t>(ox + run), in_w - shift);
          if (hi <= lo) {
            std::memset(d, 0, run * sizeof(float));
          } else {
            const std::size_t lead = static_cast<std::size_t>(lo) - ox;
            const std::size_t mid = static_cast<std::size_t>(hi - lo);
            if (lead > 0) std::memset(d, 0, lead * sizeof(float));
            std::memcpy(d + lead, in_row + (lo + shift), mid * sizeof(float));
            if (lead + mid < run)
              std::memset(d + lead + mid, 0,
                          (run - lead - mid) * sizeof(float));
          }
        }
        cc += run;
        ox += run;
        if (ox == ow) {
          ox = 0;
          ++oy;
        }
      }
      // Next im2col row: kx fastest, then ky, then channel.
      if (++kx == 3) {
        kx = 0;
        if (++ky == 3) {
          ky = 0;
          ++c;
          plane += plane_size;
        }
      }
    }
  }
}

}  // namespace

bool conv2d_direct_viable(const ConvGeometry& g) {
  // 3x3 stride-1 is what the fused packer implements; the out_w >= NR
  // condition is a measured perf heuristic, not a correctness one: with
  // narrower outputs every NR-strip row splits into multiple short branchy
  // runs, and the two-pass im2col path (straight contiguous copies both
  // passes) is faster. out_w >= NR keeps one memcpy-dominated run per
  // strip row, where skipping the materialization wins (~1.3x in
  // bench_kernels on the 16x16 search-space shapes).
  return g.kernel == 3 && g.stride == 1 && g.out_w() >= kGemmNR;
}

void conv2d_forward_direct(const ConvGeometry& g, std::size_t out_channels,
                           const float* weights, std::span<const float> image,
                           float* out, const Epilogue& epilogue) {
  g.validate();
  if (image.size() != g.in_channels * g.in_h * g.in_w)
    throw std::invalid_argument("conv2d_forward_direct: image size mismatch");
  const std::size_t m = out_channels;
  const std::size_t k = g.patch_size();
  const std::size_t n = g.out_h() * g.out_w();
  ensure_env_tune_loaded();
  const TileConfig& t = tile_config_for(k, n);
  if (!conv2d_direct_viable(g) || n * k <= t.small_row_flops) {
    // General geometries and small problems take the materialized path —
    // the exact code the caller would have run, so the bits cannot differ.
    ScratchScope scratch;
    std::span<float> cols = scratch.alloc(k * n);
    im2col(g, image, cols);
    gemm_driver(m, k, n, weights, false, cols.data(), false, out,
                /*accumulate=*/false, &epilogue);
    return;
  }
  count_gemm_call(m, k, n);
  if (util::trace::enabled())
    util::metrics::global().counter("conv.direct_calls").add();
  blocked_gemm(m, k, n, weights, false, out, /*accumulate=*/false, &epilogue,
               t,
               [&](std::size_t k0, std::size_t kc, std::size_t n0,
                   std::size_t nc, float* bpack) {
                 pack_b_conv3x3_tile(image.data(), g, k0, kc, n0, nc, bpack);
               });
}

}  // namespace a4nn::tensor
