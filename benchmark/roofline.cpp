// Tensor roofline gauges: a peak-FMA microkernel for the instruction set
// tensor::kernels dispatches to, and tensor::kernels::gemm timed at the
// Linear shapes the workloads' models run. Bytes moved are computed from
// the operand sizes (A and B read once, C written once), not measured.
#include <algorithm>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "harness.h"
#include "tensor/kernels.h"

namespace fmnet::bench {

namespace {

namespace kernels = tensor::kernels;

/// Independent accumulator chains: enough to cover FMA latency x ports.
constexpr int kChains = 12;

struct Peak {
  double flops_per_iter;
  float (*loop)(std::int64_t iters, float seed);
};

float portable_loop(std::int64_t iters, float seed) {
#if defined(__x86_64__) && defined(__GNUC__)
  // The SSE2 baseline has no FMA: a multiply and an add per element.
  __m128 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm_set1_ps(seed + j);
  const __m128 a = _mm_set1_ps(0.999999f);
  const __m128 b = _mm_set1_ps(1e-7f);
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) {
      acc[j] = _mm_add_ps(_mm_mul_ps(acc[j], a), b);
    }
  }
  __m128 sum = acc[0];
  for (int j = 1; j < kChains; ++j) sum = _mm_add_ps(sum, acc[j]);
  float out[4];
  _mm_storeu_ps(out, sum);
  return out[0] + out[1] + out[2] + out[3];
#else
  float acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = seed + static_cast<float>(j);
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * 0.999999f + 1e-7f;
  }
  float sum = 0.0f;
  for (const float v : acc) sum += v;
  return sum;
#endif
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("avx2,fma"))) float avx2_loop(std::int64_t iters,
                                                    float seed) {
  __m256 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_ps(seed + j);
  const __m256 a = _mm256_set1_ps(0.999999f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = _mm256_fmadd_ps(acc[j], a, b);
  }
  __m256 sum = acc[0];
  for (int j = 1; j < kChains; ++j) sum = _mm256_add_ps(sum, acc[j]);
  float out[8];
  _mm256_storeu_ps(out, sum);
  float total = 0.0f;
  for (const float v : out) total += v;
  return total;
}

__attribute__((target("avx512f"))) float avx512_loop(std::int64_t iters,
                                                     float seed) {
  __m512 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_ps(seed + j);
  const __m512 a = _mm512_set1_ps(0.999999f);
  const __m512 b = _mm512_set1_ps(1e-7f);
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_fmadd_ps(acc[j], a, b);
  }
  __m512 sum = acc[0];
  for (int j = 1; j < kChains; ++j) sum = _mm512_add_ps(sum, acc[j]);
  float out[16];
  _mm512_storeu_ps(out, sum);
  float total = 0.0f;
  for (const float v : out) total += v;
  return total;
}
#endif

Peak peak_for_active_isa() {
#if defined(__x86_64__) && defined(__GNUC__)
  switch (kernels::active_isa()) {
    case kernels::Isa::kAvx512:
    case kernels::Isa::kAvx512Vnni:
      return {2.0 * 16 * kChains, avx512_loop};
    case kernels::Isa::kAvx2:
      return {2.0 * 8 * kChains, avx2_loop};
    default:
      return {2.0 * 4 * kChains, portable_loop};
  }
#else
  return {2.0 * kChains, portable_loop};
#endif
}

/// Best rate over a few trials of `fn`, which performs `work` units per
/// call; each trial repeats the call for at least `min_s` seconds.
template <class Fn>
double best_rate(double work, double min_s, Fn&& fn) {
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    std::int64_t reps = 0;
    const double t0 = now_s();
    double dt = 0.0;
    do {
      fn();
      ++reps;
      dt = now_s() - t0;
    } while (dt < min_s);
    best = std::max(best, work * static_cast<double>(reps) / dt);
  }
  return best;
}

}  // namespace

void add_roofline_metrics(const std::vector<GemmShape>& shapes,
                          Result& result) {
  const Peak peak = peak_for_active_isa();
  constexpr std::int64_t kIters = 100'000;
  volatile float sink = 0.0f;
  const double peak_flops =
      best_rate(peak.flops_per_iter * kIters, 0.02,
                [&] { sink = sink + peak.loop(kIters, 1.0f); });
  result.add("tensor.fma_peak_gflops", peak_flops * 1e-9, "GFLOP/s");

  for (const GemmShape& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.01f * (i % 97);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.02f * (i % 89);
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const double bytes =
        4.0 * static_cast<double>(s.m * s.k + s.k * s.n + s.m * s.n);
    const double calls_per_s = best_rate(1.0, 0.02, [&] {
      kernels::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n, nullptr,
                    /*accumulate=*/false);
      sink = sink + c[0];
    });
    const std::string suffix = std::string(".") + s.name;
    result.add("tensor.gemm_gflops" + suffix, calls_per_s * flops * 1e-9,
               "GFLOP/s");
    result.add("tensor.gemm_peak_frac" + suffix,
               calls_per_s * flops / peak_flops, "frac");
    result.add("tensor.gemm_gbytes_per_s" + suffix,
               calls_per_s * bytes * 1e-9, "GB/s");
  }
}

}  // namespace fmnet::bench
