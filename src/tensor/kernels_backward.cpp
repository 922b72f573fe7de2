// ISA clones and dispatch of the contraction-free row kernels
// (kernels_backward.inc), and the AVX-512 LayerNorm forward. This
// translation unit is compiled with -ffp-contract=off
// (src/tensor/CMakeLists.txt): the clones must round like the SSE2 loops
// they replace, which had no FMA to contract into.
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "tensor/activations.h"
#include "tensor/kernels.h"
#include "tensor/kernels_clones.h"

namespace fmnet::tensor::kernels {

namespace {

namespace baseline {
#include "tensor/kernels_backward.inc"
}  // namespace baseline

#ifdef FMNET_GEMM_AVX2_CLONE
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
#include "tensor/kernels_backward.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

#ifdef FMNET_GEMM_AVX512_CLONE
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512bw,avx512dq,avx2,fma")
// _mm512_undefined_ps inside the gather and sqrt intrinsics trips GCC's
// -W(maybe-)uninitialized (the intrinsics header's deliberate `__Y = __Y`).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
namespace avx512 {
#include "tensor/kernels_backward.inc"

// LayerNorm forward with one row per vector lane, for the model widths
// f = 8 (serving) and f = 16 (Table 1). A single row's two sums are serial
// chains of f dependent adds each, and such a row is at most one vector,
// so the row-major kernel waits on add latency for every row. Here each
// 16-row block gathers feature j of its rows into one vector, once: lane
// l sums row l in the row's own left-to-right order, from zero, every add
// and multiply rounded on its own (this file does not contract), and
// sqrt and the division are the correctly rounded vector instructions, so
// the statistics are the scalar loop's bit for bit. The outputs then run
// within each row, broadcasting its mean and 1/std, with the scalar loop's
// operations. Other widths, and the rows after the last full block, take
// layer_norm_rows_impl, which computes the same bits.

inline constexpr std::int64_t kNormLanes = 16;

/// One 16-row block of layer_norm_rows for f == kF (kF <= 16).
template <int kF>
inline void layer_norm_lanes16(const float* __restrict x,
                               const float* __restrict gamma,
                               const float* __restrict beta, float inv_f,
                               float eps, float* __restrict out,
                               float* __restrict stats) {
  constexpr auto kMask = static_cast<__mmask16>((1u << kF) - 1);
  const __m512i rows = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(kF));
  const __m512 vinv_f = _mm512_set1_ps(inv_f);
  __m512 xt[kF];
  __m512 sum = _mm512_setzero_ps();
#pragma GCC unroll 16
  for (int j = 0; j < kF; ++j) {
    xt[j] = _mm512_i32gather_ps(rows, x + j, 4);
    sum = _mm512_add_ps(sum, xt[j]);
  }
  const __m512 mu = _mm512_mul_ps(sum, vinv_f);
  __m512 var = _mm512_setzero_ps();
#pragma GCC unroll 16
  for (int j = 0; j < kF; ++j) {
    const __m512 d = _mm512_sub_ps(xt[j], mu);
    var = _mm512_add_ps(var, _mm512_mul_ps(d, d));
  }
  const __m512 inv_std = _mm512_div_ps(
      _mm512_set1_ps(1.0f),
      _mm512_sqrt_ps(_mm512_add_ps(_mm512_mul_ps(var, vinv_f),
                                   _mm512_set1_ps(eps))));
  // (mu, inv_std) pairs of rows 0-7, then of rows 8-15.
  const __m512i lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5,
                                       21, 6, 22, 7, 23);
  const __m512i hi = _mm512_add_epi32(lo, _mm512_set1_epi32(8));
  _mm512_storeu_ps(stats, _mm512_permutex2var_ps(mu, lo, inv_std));
  _mm512_storeu_ps(stats + 16, _mm512_permutex2var_ps(mu, hi, inv_std));
  alignas(64) float mus[kNormLanes];
  alignas(64) float invs[kNormLanes];
  _mm512_store_ps(mus, mu);
  _mm512_store_ps(invs, inv_std);
  const __m512 g = _mm512_maskz_loadu_ps(kMask, gamma);
  const __m512 b = _mm512_maskz_loadu_ps(kMask, beta);
#pragma GCC unroll 16
  for (int l = 0; l < kNormLanes; ++l) {
    const __m512 xr = _mm512_maskz_loadu_ps(kMask, x + l * kF);
    const __m512 y = _mm512_add_ps(
        _mm512_mul_ps(_mm512_mul_ps(_mm512_sub_ps(xr, _mm512_set1_ps(mus[l])),
                                    _mm512_set1_ps(invs[l])),
                      g),
        b);
    _mm512_mask_storeu_ps(out + l * kF, kMask, y);
  }
}

/// layer_norm_rows for the AVX-512 clone: full 16-row blocks of the model
/// widths in the lanes, everything else row-major.
inline void layer_norm_rows_avx512(const float* x, const float* gamma,
                                   const float* beta, std::int64_t rows,
                                   std::int64_t f, float inv_f, float eps,
                                   float* out, float* stats) {
  std::int64_t r = 0;
  if (f == 8 || f == 16) {
    for (; r + kNormLanes <= rows; r += kNormLanes) {
      (f == 8 ? layer_norm_lanes16<8> : layer_norm_lanes16<16>)(
          x + r * f, gamma, beta, inv_f, eps, out + r * f, stats + 2 * r);
    }
  }
  layer_norm_rows_impl(x + r * f, gamma, beta, rows - r, f, inv_f, eps,
                       out + r * f, stats + 2 * r);
}
}  // namespace avx512
#pragma GCC diagnostic pop
#pragma GCC pop_options
#endif

struct BackwardFns {
  void (*gelu_grad_mul)(const float*, const float*, float*, std::int64_t);
  void (*softmax_jacobian_rows)(float*, const float*, std::int64_t,
                                std::int64_t, float);
  void (*layer_norm_grad_rows)(const float*, const float*, const float*,
                               const float*, std::int64_t, std::int64_t,
                               float, float*, float*, float*);
  void (*layer_norm_rows)(const float*, const float*, const float*,
                          std::int64_t, std::int64_t, float, float, float*,
                          float*);
};

#define FMNET_BACKWARD_FNS(ns, layer_norm_rows)             \
  BackwardFns {                                             \
    ns::gelu_grad_mul_impl, ns::softmax_jacobian_rows_impl, \
        ns::layer_norm_grad_rows_impl, layer_norm_rows      \
  }

BackwardFns fns() {
  switch (active_isa()) {
#ifdef FMNET_GEMM_AVX2_CLONE
    case Isa::kAvx2:
      return FMNET_BACKWARD_FNS(avx2, avx2::layer_norm_rows_impl);
#endif
#ifdef FMNET_GEMM_AVX512_CLONE
    case Isa::kAvx512:
      return FMNET_BACKWARD_FNS(avx512, avx512::layer_norm_rows_avx512);
#endif
    default:
      return FMNET_BACKWARD_FNS(baseline, baseline::layer_norm_rows_impl);
  }
}

#undef FMNET_BACKWARD_FNS

}  // namespace

void layer_norm_rows(const float* x, const float* gamma, const float* beta,
                     std::int64_t rows, std::int64_t f, float inv_f,
                     float eps, float* out, float* stats) {
  if (rows > 0 && f > 0) {
    fns().layer_norm_rows(x, gamma, beta, rows, f, inv_f, eps, out, stats);
  }
}

void gelu_grad_mul(const float* dy, const float* z, float* dz,
                   std::int64_t n) {
  if (n > 0) fns().gelu_grad_mul(dy, z, dz, n);
}

void softmax_jacobian_rows(float* d, const float* y, std::int64_t rows,
                           std::int64_t len, float scale) {
  if (rows > 0 && len > 0) fns().softmax_jacobian_rows(d, y, rows, len, scale);
}

void layer_norm_grad_rows(const float* dy, const float* x,
                          const float* stats, const float* gamma,
                          std::int64_t rows, std::int64_t f, float inv_f,
                          float* dx, float* dgamma, float* dbeta) {
  if (rows > 0 && f > 0) {
    fns().layer_norm_grad_rows(dy, x, stats, gamma, rows, f, inv_f, dx,
                               dgamma, dbeta);
  }
}

}  // namespace fmnet::tensor::kernels
