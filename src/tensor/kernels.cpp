#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "tensor/activations.h"
#include "tensor/kernels_clones.h"
#include "tensor/pool.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fmnet::tensor::kernels {

namespace {

// attention_rows as gemm_bt -> softmax_rows -> gemm, through the
// ISA-dispatched entry points: the variant every ISA without a dedicated
// attention body runs, and the fallback of the AVX-512 body for shapes it
// does not take. It keeps P row-major.
ProbsLayout attention_composed(const float* q, const float* k,
                               const float* v, float* out, std::int64_t t,
                               std::int64_t s, std::int64_t hd,
                               std::int64_t ld, float scale, float* probs) {
  // Inference keeps no softmax rows: a [t, s] scratch holds them between
  // the two products.
  std::vector<float> scratch;
  if (probs == nullptr) {
    scratch = pool::acquire(static_cast<std::size_t>(t * s));
    probs = scratch.data();
  }
  gemm_bt(q, k, probs, t, hd, s, /*pool=*/nullptr, /*accumulate=*/false,
          {ld, ld, s});
  // softmax(scale * x) == exp(scale * (x - max)) / sum: the score scale
  // folds into the exp argument instead of a separate scaling pass.
  softmax_rows(probs, t, s, scale);
  gemm(probs, v, out, t, s, hd, /*pool=*/nullptr, /*accumulate=*/false,
       {s, ld, ld});
  pool::release(std::move(scratch));
  return ProbsLayout::kRowMajor;
}

// attention_rows_grad for row-major P, through the ISA-dispatched entry
// points; `dz` is a [t, s] scratch for dP and then dZ.
void attention_grad_composed(const float* q, const float* k, const float* v,
                             const float* dy, const float* probs, float* dq,
                             float* dk, float* dv, std::int64_t t,
                             std::int64_t s, std::int64_t hd,
                             std::int64_t ld, float scale, float* dz) {
  const RowStrides scores_ld{ld, ld, s};  // [t,hd] x [s,hd]^T
  const RowStrides probs_ld{s, ld, ld};   // [t,s] x [s,hd]
  if (dv != nullptr) {
    gemm_at(probs, dy, dv, s, t, hd, /*pool=*/nullptr, /*accumulate=*/true,
            probs_ld);
  }
  if (dq == nullptr && dk == nullptr) return;
  gemm_bt(dy, v, dz, t, hd, s, /*pool=*/nullptr, /*accumulate=*/false,
          scores_ld);
  // Softmax Jacobian and the score scale in one in-place pass.
  softmax_jacobian_rows(dz, probs, t, s, scale);
  if (dq != nullptr) {
    gemm(dz, k, dq, t, s, hd, /*pool=*/nullptr, /*accumulate=*/true,
         probs_ld);
  }
  if (dk != nullptr) {
    gemm_at(dz, q, dk, s, t, hd, /*pool=*/nullptr, /*accumulate=*/true,
            probs_ld);
  }
}

// ---- panel kernel, compiled per ISA ---------------------------------------

// The body lives in kernels_panel.inc and is textually included once per
// instruction set. `baseline` is whatever the build targets (the SSE2
// x86-64 floor unless the compiler flags raise it). On GCC x86-64
// builds whose baseline lacks AVX2+FMA we additionally compile an
// AVX2+FMA clone of the same body (~2.5x more GEMM throughput on post-2013
// cores), and whose baseline lacks AVX-512F an AVX-512 clone (wider FMA
// streams for the batched-inference row counts); the best CPU-supported
// variant is picked at startup — the binary stays runnable on any x86-64
// machine. Set FMNET_KERNEL_ISA=portable|avx2|avx512 to pin a variant
// (e.g. to compare numbers across machines: FMA contracts a*b+c into one
// rounding, so variants can differ in the last ulp), or call set_isa()
// to re-pin at runtime (the tests sweep every supported variant).

namespace baseline {
#include "tensor/kernels_elementwise.inc"
#include "tensor/kernels_panel.inc"
#include "tensor/kernels_skinny.inc"
}  // namespace baseline

#ifdef FMNET_GEMM_AVX2_CLONE
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
#include "tensor/kernels_elementwise.inc"
#include "tensor/kernels_panel.inc"
#include "tensor/kernels_skinny.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

#ifdef FMNET_GEMM_AVX512_CLONE
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512bw,avx512dq,avx2,fma")
// _mm512_undefined_ps inside _mm512_max_ps trips GCC's
// -Wmaybe-uninitialized (the intrinsics header's deliberate `__Y = __Y`).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
namespace avx512 {
#include "tensor/kernels_elementwise.inc"
#include "tensor/kernels_panel.inc"
#include "tensor/kernels_skinny.inc"
#include "tensor/kernels_avx512.inc"
}  // namespace avx512
#pragma GCC diagnostic pop
#pragma GCC pop_options
#endif

using PanelFn = void (*)(const float*, std::int64_t, std::int64_t,
                         const float*, std::int64_t, float*, std::int64_t,
                         std::int64_t, std::int64_t, std::int64_t, bool);
using SkinnyFn = void (*)(const float*, std::int64_t, std::int64_t,
                          const float*, float*, std::int64_t, std::int64_t,
                          std::int64_t, std::int64_t, bool, const float*);
using SoftmaxFn = void (*)(float*, std::int64_t, std::int64_t, float);
using GeluFn = void (*)(float*, std::int64_t, std::int64_t);
using AttentionFn = ProbsLayout (*)(const float*, const float*,
                                    const float*, float*, std::int64_t,
                                    std::int64_t, std::int64_t, std::int64_t,
                                    float, float*);

PanelFn fn_for(Isa isa) {
  switch (isa) {
#ifdef FMNET_GEMM_AVX2_CLONE
    case Isa::kAvx2:
      return avx2::panel_update;
#endif
#ifdef FMNET_GEMM_AVX512_CLONE
    case Isa::kAvx512:
      return avx512::panel_update;
#endif
    default:
      return baseline::panel_update;
  }
}

SkinnyFn skinny_fn_for(Isa isa) {
  switch (isa) {
#ifdef FMNET_GEMM_AVX2_CLONE
    case Isa::kAvx2:
      return avx2::skinny_run;
#endif
#ifdef FMNET_GEMM_AVX512_CLONE
    case Isa::kAvx512:
      return avx512::skinny_run_avx512;
#endif
    default:
      return baseline::skinny_run;
  }
}

SoftmaxFn softmax_fn_for(Isa isa) {
  switch (isa) {
#ifdef FMNET_GEMM_AVX2_CLONE
    case Isa::kAvx2:
      return avx2::softmax_rows_impl;
#endif
#ifdef FMNET_GEMM_AVX512_CLONE
    case Isa::kAvx512:
      return avx512::softmax_rows_impl;
#endif
    default:
      return baseline::softmax_rows_impl;
  }
}

GeluFn gelu_fn_for(Isa isa) {
  switch (isa) {
#ifdef FMNET_GEMM_AVX2_CLONE
    case Isa::kAvx2:
      return avx2::gelu_rows_impl;
#endif
#ifdef FMNET_GEMM_AVX512_CLONE
    case Isa::kAvx512:
      return avx512::gelu_rows_impl;
#endif
    default:
      return baseline::gelu_rows_impl;
  }
}

AttentionFn attention_fn_for(Isa isa) {
  switch (isa) {
#ifdef FMNET_GEMM_AVX512_CLONE
    case Isa::kAvx512:
      return avx512::attention_rows_avx512;
#endif
    default:
      return attention_composed;
  }
}

bool cpu_executes(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) && defined(__GNUC__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512Vnni:  // never compiled (see kernels.h)
      return false;
  }
  return false;
}

Isa resolve_initial() {
  const char* env = std::getenv("FMNET_KERNEL_ISA");
  if (env != nullptr) {
    for (const Isa pin : {Isa::kPortable, Isa::kAvx2, Isa::kAvx512}) {
      if (std::strcmp(env, isa_name(pin)) == 0 && isa_supported(pin)) {
        return pin;
      }
    }
    // Unknown or unsupported pin: fall through to the best variant rather
    // than crash a run over an env typo.
  }
  Isa best = Isa::kPortable;
  for (const Isa isa : compiled_isas()) {
    if (cpu_executes(isa) && static_cast<int>(isa) > static_cast<int>(best)) {
      best = isa;
    }
  }
  return best;
}

// The active variant, re-pinnable at runtime via set_isa(). Stored as the
// enum (relaxed atomic: one int load per gemm call); panel pointers come
// from fn_for so a pin and its dispatch can never disagree.
std::atomic<int> g_active{-1};

Isa active_isa_slow() {
  int cur = g_active.load(std::memory_order_relaxed);
  if (cur < 0) {
    // First call resolves the env default. Racing resolvers compute the
    // same pure function of (env, cpuid), so last-write-wins is benign.
    cur = static_cast<int>(resolve_initial());
    g_active.store(cur, std::memory_order_relaxed);
  }
  return static_cast<Isa>(cur);
}

PanelFn panel_fn() { return fn_for(active_isa_slow()); }

// Fills every row of an [m, n] block whose rows are rs apart with `row`,
// or with zeros when it is null.
void fill_rows(float* c, std::int64_t rs, std::int64_t m, std::int64_t n,
               const float* row = nullptr) {
  const auto bytes = static_cast<std::size_t>(n) * sizeof(float);
  for (std::int64_t i = 0; i < m; ++i) {
    if (row != nullptr) {
      std::memcpy(c + i * rs, row, bytes);
    } else {
      std::memset(c + i * rs, 0, bytes);
    }
  }
}

// ---- driver ---------------------------------------------------------------

// Shared driver: A addressed through strides (a_rs/a_cs); B delivered one
// k-panel at a time by `panel_of(p0, kc)` as a row-major [kc][n] slab
// whose rows are b_rs apart; C rows are c_rs apart.
// Output row blocks of kRowBlock rows are the parallel work items: every
// output element is computed start-to-finish by whichever lane owns its row
// block, and the k/j iteration order inside a block is a pure function of
// the problem size — never of the partition — so results are bit-identical
// at any lane count (the determinism contract of util/thread_pool.h).
// Small problems (2*m*k*n < kParallelFlops) run inline to skip dispatch
// overhead; the threshold only looks at the problem size, never the lane
// count. kRowBlock is a multiple of kMR, so row quads never straddle lanes
// and every row takes the same code path (quad vs tail) under any
// partition.
// `accumulate == false` asks the panel kernel to overwrite C on the first
// k-step instead of requiring the caller to zero C beforehand — for the
// skinny-k attention products that zeroing pass was comparable to the GEMM
// itself.
template <class PanelProvider>
void gemm_driver(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                 std::int64_t b_rs, float* c, std::int64_t c_rs,
                 std::int64_t m, std::int64_t k, std::int64_t n,
                 util::ThreadPool* pool, bool accumulate,
                 PanelProvider&& panel_of) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // An empty sum: overwrite mode still owes the caller zeros.
    if (!accumulate) fill_rows(c, c_rs, m, n);
    return;
  }
  const PanelFn panel = panel_fn();
  const std::int64_t row_blocks = (m + kRowBlock - 1) / kRowBlock;

  util::ThreadPool& tp = util::ThreadPool::resolve(pool);
  const bool parallel =
      tp.size() > 1 && 2 * m * k * n >= kParallelFlops && row_blocks > 1;

  for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
    const std::int64_t kc = std::min(kKC, k - p0);
    const float* bp = panel_of(p0, kc);
    const bool overwrite = !accumulate && p0 == 0;
    const auto run_block = [&](std::int64_t blk) {
      const std::int64_t i0 = blk * kRowBlock;
      const std::int64_t rows = std::min(kRowBlock, m - i0);
      panel(a + i0 * a_rs + p0 * a_cs, a_rs, a_cs, bp, b_rs, c + i0 * c_rs,
            c_rs, rows, kc, n, overwrite);
    };
    if (parallel) {
      tp.parallel_for(0, row_blocks, run_block);
    } else {
      for (std::int64_t blk = 0; blk < row_blocks; ++blk) run_block(blk);
    }
  }
}

// Skinny-N fast path (kernels_skinny.inc): for n <= kSkinnyMaxN each C row
// rides in registers across the full k extent — no k-panelling, no C
// re-reads. Serves gemm and gemm_at (B streamed in place); gemm_bt keeps
// the panel path since its B needs repacking per k-panel anyway. The
// kernel wants B dense, so a strided B (one head's columns of a wider
// buffer) is first copied into a [k, n] block — k*n floats against the
// kernel's m*k*n multiply-adds, on the calling thread before lanes fan
// out. Same row-block partitioning and inline threshold as gemm_driver, so
// the lane-count determinism contract carries over unchanged. A non-null
// `bias` row is added to every row's sum in place of C's contents.
bool skinny_gemm(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                 const float* b, std::int64_t b_rs, float* c,
                 std::int64_t c_rs, std::int64_t m, std::int64_t k,
                 std::int64_t n, util::ThreadPool* pool, bool accumulate,
                 const float* bias = nullptr) {
  if (n <= 0 || n > kSkinnyMaxN) return false;
  if (m == 0) return true;
  if (k == 0) {
    // An empty sum: overwrite mode still owes the caller zeros, and a bias
    // its row.
    if (bias != nullptr || !accumulate) fill_rows(c, c_rs, m, n, bias);
    return true;
  }
  std::vector<float> packed;
  if (b_rs != n) {
    packed = pool::acquire(static_cast<std::size_t>(k * n));
    for (std::int64_t p = 0; p < k; ++p) {
      std::memcpy(packed.data() + p * n, b + p * b_rs,
                  static_cast<std::size_t>(n) * sizeof(float));
    }
    b = packed.data();
  }
  const SkinnyFn fn = skinny_fn_for(active_isa_slow());
  const std::int64_t row_blocks = (m + kRowBlock - 1) / kRowBlock;
  util::ThreadPool& tp = util::ThreadPool::resolve(pool);
  const bool parallel =
      tp.size() > 1 && 2 * m * k * n >= kParallelFlops && row_blocks > 1;
  const auto run_block = [&](std::int64_t blk) {
    const std::int64_t i0 = blk * kRowBlock;
    const std::int64_t rows = std::min(kRowBlock, m - i0);
    fn(a + i0 * a_rs, a_rs, a_cs, b, c + i0 * c_rs, c_rs, rows, k, n,
       accumulate, bias);
  };
  if (parallel) {
    tp.parallel_for(0, row_blocks, run_block);
  } else {
    for (std::int64_t blk = 0; blk < row_blocks; ++blk) run_block(blk);
  }
  pool::release(std::move(packed));
  return true;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return "portable";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx512Vnni:
      return "avx512vnni";
  }
  return "unknown";
}

std::vector<Isa> compiled_isas() {
  std::vector<Isa> out{Isa::kPortable};
#ifdef FMNET_GEMM_AVX2_CLONE
  out.push_back(Isa::kAvx2);
#endif
#ifdef FMNET_GEMM_AVX512_CLONE
  out.push_back(Isa::kAvx512);
#endif
  return out;
}

bool isa_supported(Isa isa) {
  const std::vector<Isa> compiled = compiled_isas();
  if (std::find(compiled.begin(), compiled.end(), isa) == compiled.end()) {
    return false;
  }
  return cpu_executes(isa);
}

Isa active_isa() { return active_isa_slow(); }

void set_isa(Isa isa) {
  FMNET_CHECK(isa_supported(isa),
              std::string("FMNET kernel ISA not supported on this "
                          "build/CPU: ") +
                  isa_name(isa));
  g_active.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void softmax_rows(float* v, std::int64_t rows, std::int64_t len,
                  float scale) {
  if (rows == 0 || len == 0) return;
  softmax_fn_for(active_isa_slow())(v, rows, len, scale);
}

void gelu_rows(float* v, std::int64_t rows, std::int64_t len) {
  if (rows == 0 || len == 0) return;
  gelu_fn_for(active_isa_slow())(v, rows, len);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, util::ThreadPool* pool,
          bool accumulate, RowStrides ld) {
  const std::int64_t lda = ld.a != 0 ? ld.a : k;
  const std::int64_t ldb = ld.b != 0 ? ld.b : n;
  const std::int64_t ldc = ld.c != 0 ? ld.c : n;
  // B is already row-major [k, n]: each k-panel is a slab of it in place,
  // no packing copy needed.
  if (skinny_gemm(a, /*a_rs=*/lda, /*a_cs=*/1, b, ldb, c, ldc, m, k, n,
                  pool, accumulate)) {
    return;
  }
  gemm_driver(a, /*a_rs=*/lda, /*a_cs=*/1, ldb, c, ldc, m, k, n, pool,
              accumulate, [b, ldb](std::int64_t p0, std::int64_t) {
                return b + p0 * ldb;
              });
}

void gemm_bias(const float* a, const float* b, const float* bias, float* c,
               std::int64_t m, std::int64_t k, std::int64_t n,
               util::ThreadPool* pool) {
  if (skinny_gemm(a, /*a_rs=*/k, /*a_cs=*/1, b, n, c, n, m, k, n, pool,
                  /*accumulate=*/false, bias)) {
    return;
  }
  // The panel kernel re-reads C once per k-panel: start it at the bias.
  fill_rows(c, n, m, n, bias);
  gemm_driver(a, /*a_rs=*/k, /*a_cs=*/1, n, c, n, m, k, n, pool,
              /*accumulate=*/true, [b, n](std::int64_t p0, std::int64_t) {
                return b + p0 * n;
              });
}

void gemm_at(const float* at, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, util::ThreadPool* pool,
             bool accumulate, RowStrides ld) {
  const std::int64_t lda = ld.a != 0 ? ld.a : m;
  const std::int64_t ldb = ld.b != 0 ? ld.b : n;
  const std::int64_t ldc = ld.c != 0 ? ld.c : n;
  // a(i, p) = at[p*lda + i]: unit row stride, lda column stride. The panel
  // kernel hoists A loads out of its inner loop, so the stride is free.
  if (skinny_gemm(at, /*a_rs=*/1, /*a_cs=*/lda, b, ldb, c, ldc, m, k, n,
                  pool, accumulate)) {
    return;
  }
  gemm_driver(at, /*a_rs=*/1, /*a_cs=*/lda, ldb, c, ldc, m, k, n, pool,
              accumulate, [b, ldb](std::int64_t p0, std::int64_t) {
                return b + p0 * ldb;
              });
}

void gemm_bt(const float* a, const float* bt, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, util::ThreadPool* pool,
             bool accumulate, RowStrides ld) {
  const std::int64_t lda = ld.a != 0 ? ld.a : k;
  const std::int64_t ldb = ld.b != 0 ? ld.b : k;
  const std::int64_t ldc = ld.c != 0 ? ld.c : n;
  // B arrives transposed ([n, k]); repack each k-panel into a row-major
  // [kc, n] slab once — O(kc*n) copies amortised over m output rows — so
  // the panel kernel keeps unit-stride B streams. The pack runs on the
  // calling thread before lanes fan out, so it is partition-independent.
  std::vector<float> packed =
      pool::acquire(static_cast<std::size_t>(std::min(kKC, k) * n));
  gemm_driver(a, /*a_rs=*/lda, /*a_cs=*/1, /*b_rs=*/n, c, ldc, m, k, n, pool,
              accumulate,
              [bt, ldb, n, &packed](std::int64_t p0, std::int64_t kc) {
                for (std::int64_t j = 0; j < n; ++j) {
                  const float* src = bt + j * ldb + p0;
                  for (std::int64_t p = 0; p < kc; ++p) {
                    packed[static_cast<std::size_t>(p * n + j)] = src[p];
                  }
                }
                return static_cast<const float*>(packed.data());
              });
  pool::release(std::move(packed));
}

std::int64_t attention_probs_floats(std::int64_t t, std::int64_t s) {
  return (t + 15) / 16 * 16 * s;
}

ProbsLayout attention_rows(const float* q, const float* k, const float* v,
                           float* out, std::int64_t t, std::int64_t s,
                           std::int64_t hd, std::int64_t ld, float scale,
                           float* probs) {
  if (t == 0) return ProbsLayout::kRowMajor;
  return attention_fn_for(active_isa_slow())(q, k, v, out, t, s, hd, ld,
                                             scale, probs);
}

std::int64_t attention_grad_scratch_floats(std::int64_t t, std::int64_t s) {
  // Key-major: 64-byte alignment slack, the dZ tiles, and dense [s][8] K
  // and [t][8] dY and Q. Row-major uses [t, s] of it.
  return 16 + attention_probs_floats(t, s) + 8 * s + 16 * t;
}

void attention_rows_grad(const float* q, const float* k, const float* v,
                         const float* dy, const float* probs,
                         ProbsLayout layout, float* dq, float* dk, float* dv,
                         std::int64_t t, std::int64_t s, std::int64_t hd,
                         std::int64_t ld, float scale, float* scratch) {
  if (t == 0 || s == 0) return;
  if (layout == ProbsLayout::kRowMajor) {
    attention_grad_composed(q, k, v, dy, probs, dq, dk, dv, t, s, hd, ld,
                            scale, scratch);
    return;
  }
  // Only the AVX-512 forward writes key-major P, so its backward exists
  // wherever such P can.
#if defined(FMNET_GEMM_AVX512_CLONE)
  avx512::attention_grad_avx512(q, k, v, dy, probs, dq, dk, dv, t, s, ld,
                                scale, scratch);
#else
  FMNET_CHECK(false, "key-major attention probs without an AVX-512 body");
#endif
}

void reference_gemm(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void reference_gemm_at(const float* at, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t p = 0; p < k; ++p) {
    const float* arow = at + p * m;
    const float* brow = b + p * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void reference_gemm_bt(const float* a, const float* bt, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float* arow = a + i * k;
      const float* brow = bt + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      c[i * n + j] += acc;
    }
  }
}

}  // namespace fmnet::tensor::kernels
