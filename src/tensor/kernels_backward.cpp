// ISA clones and dispatch of the backward elementwise kernels
// (kernels_backward.inc). This translation unit is compiled with
// -ffp-contract=off (src/tensor/CMakeLists.txt): the clones must round
// like the SSE2 loops they replace, which had no FMA to contract into.
#include <cstdint>

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

// One AVX-512 clone serves the avx512 and avx512vnni dispatch slots:
// these kernels have no integer work for VNNI to change.
#ifdef FMNET_GEMM_AVX512_CLONE
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512bw,avx512dq,avx2,fma")
namespace avx512 {
#include "tensor/kernels_backward.inc"
}  // namespace avx512
#pragma GCC pop_options
#endif

struct BackwardFns {
  void (*gelu_grad_mul)(const float*, const float*, float*, std::int64_t);
  void (*softmax_jacobian_rows)(float*, const float*, std::int64_t,
                                std::int64_t, float);
  void (*layer_norm_grad_rows)(const float*, const float*, const float*,
                               const float*, std::int64_t, std::int64_t,
                               float, float*, float*, float*);
};

#define FMNET_BACKWARD_FNS(ns)                                  \
  BackwardFns {                                                 \
    ns::gelu_grad_mul_impl, ns::softmax_jacobian_rows_impl,     \
        ns::layer_norm_grad_rows_impl                           \
  }

BackwardFns fns() {
  switch (active_isa()) {
#ifdef FMNET_GEMM_AVX2_CLONE
    case Isa::kAvx2:
      return FMNET_BACKWARD_FNS(avx2);
#endif
#ifdef FMNET_GEMM_AVX512_CLONE
    case Isa::kAvx512:
    case Isa::kAvx512Vnni:
      return FMNET_BACKWARD_FNS(avx512);
#endif
    default:
      return FMNET_BACKWARD_FNS(baseline);
  }
}

#undef FMNET_BACKWARD_FNS

}  // namespace

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
