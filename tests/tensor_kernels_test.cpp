// Kernel-layer correctness: the blocked/register-tiled GEMM family against
// the naive references over an exhaustive shape sweep, lane-count and
// row-position bit-identity, strided operands, the backward kernels
// against the scalar loops they replaced, fused ops (linear_act,
// layer_norm, softmax, scaled_matmul_bt, head-strided attention) against
// their primitive compositions and central-difference gradients, the
// attention kernels (forward and backward) against the compositions they
// replaced, and buffer-pool recycling across lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/activations.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fmnet::tensor {
namespace {

std::vector<float> random_buffer(std::size_t n, fmnet::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

// Central-difference gradient checker (same contract as
// tensor_grad_test.cpp).
void check_gradients(std::vector<Tensor> inputs,
                     const std::function<Tensor(const std::vector<Tensor>&)>&
                         fn,
                     float eps = 1e-3f, float tol = 2e-2f) {
  Tensor loss = fn(inputs);
  ASSERT_EQ(loss.numel(), 1);
  loss.backward();

  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const auto analytic = inputs[t].grad();
    for (std::size_t i = 0; i < inputs[t].data().size(); ++i) {
      const float saved = inputs[t].data()[i];
      inputs[t].data()[i] = saved + eps;
      const float up = fn(inputs).item();
      inputs[t].data()[i] = saved - eps;
      const float down = fn(inputs).item();
      inputs[t].data()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic[i], numeric, tol)
          << "input " << t << " element " << i;
    }
  }
}

Tensor rand_input(const Shape& shape, fmnet::Rng& rng) {
  return Tensor::randn(shape, rng, 1.0f, /*requires_grad=*/true);
}

// The blocked kernels reassociate the k-sum at panel boundaries, so they
// are compared to the naive references with a tolerance scaled to the
// reduction depth.
float gemm_tol(std::int64_t k) {
  return 1e-5f * std::sqrt(static_cast<float>(k)) * 10.0f;
}

// ---- exhaustive GEMM vs reference sweep -----------------------------------

// Sizes hit every panel-kernel row tail (1..4) and k-unroll tail, plus odd
// widths; the dedicated PanelBoundaries test covers k > kKC.
const std::int64_t kSweep[] = {1, 2, 3, 17, 33, 63};

TEST(GemmKernels, MatchesReferenceExhaustive) {
  fmnet::Rng rng(101);
  for (const std::int64_t m : kSweep) {
    for (const std::int64_t k : kSweep) {
      for (const std::int64_t n : kSweep) {
        const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
        const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
        std::vector<float> fast(static_cast<std::size_t>(m * n), 0.5f);
        std::vector<float> ref = fast;  // same non-zero init: += contract
        kernels::gemm(a.data(), b.data(), fast.data(), m, k, n);
        kernels::reference_gemm(a.data(), b.data(), ref.data(), m, k, n);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(fast[i], ref[i], gemm_tol(k))
              << "gemm " << m << "x" << k << "x" << n << " elem " << i;
        }
      }
    }
  }
}

TEST(GemmKernels, TransposedAMatchesReferenceExhaustive) {
  fmnet::Rng rng(102);
  for (const std::int64_t m : kSweep) {
    for (const std::int64_t k : kSweep) {
      for (const std::int64_t n : kSweep) {
        const auto at = random_buffer(static_cast<std::size_t>(k * m), rng);
        const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
        std::vector<float> fast(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> ref = fast;
        kernels::gemm_at(at.data(), b.data(), fast.data(), m, k, n);
        kernels::reference_gemm_at(at.data(), b.data(), ref.data(), m, k, n);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(fast[i], ref[i], gemm_tol(k))
              << "gemm_at " << m << "x" << k << "x" << n << " elem " << i;
        }
      }
    }
  }
}

TEST(GemmKernels, TransposedBMatchesReferenceExhaustive) {
  fmnet::Rng rng(103);
  for (const std::int64_t m : kSweep) {
    for (const std::int64_t k : kSweep) {
      for (const std::int64_t n : kSweep) {
        const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
        const auto bt = random_buffer(static_cast<std::size_t>(n * k), rng);
        std::vector<float> fast(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> ref = fast;
        kernels::gemm_bt(a.data(), bt.data(), fast.data(), m, k, n);
        kernels::reference_gemm_bt(a.data(), bt.data(), ref.data(), m, k, n);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(fast[i], ref[i], gemm_tol(k))
              << "gemm_bt " << m << "x" << k << "x" << n << " elem " << i;
        }
      }
    }
  }
}

TEST(GemmKernels, OverwriteModeEqualsAccumulateIntoZeros) {
  // accumulate=false must produce the same values as accumulate=true on a
  // zeroed C — same k-sum grouping — starting from garbage-filled C.
  fmnet::Rng rng(107);
  for (const std::int64_t m : kSweep) {
    for (const std::int64_t k : kSweep) {
      for (const std::int64_t n : kSweep) {
        const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
        const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
        const auto bt = random_buffer(static_cast<std::size_t>(n * k), rng);
        const auto at = random_buffer(static_cast<std::size_t>(k * m), rng);
        std::vector<float> zeroed(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> dirty(static_cast<std::size_t>(m * n), 1e30f);
        kernels::gemm(a.data(), b.data(), zeroed.data(), m, k, n);
        kernels::gemm(a.data(), b.data(), dirty.data(), m, k, n, nullptr,
                      /*accumulate=*/false);
        EXPECT_EQ(zeroed, dirty) << "gemm " << m << "x" << k << "x" << n;

        std::fill(zeroed.begin(), zeroed.end(), 0.0f);
        std::fill(dirty.begin(), dirty.end(), -1e30f);
        kernels::gemm_at(at.data(), b.data(), zeroed.data(), m, k, n);
        kernels::gemm_at(at.data(), b.data(), dirty.data(), m, k, n, nullptr,
                         /*accumulate=*/false);
        EXPECT_EQ(zeroed, dirty) << "gemm_at " << m << "x" << k << "x" << n;

        std::fill(zeroed.begin(), zeroed.end(), 0.0f);
        std::fill(dirty.begin(), dirty.end(), 1e30f);
        kernels::gemm_bt(a.data(), bt.data(), zeroed.data(), m, k, n);
        kernels::gemm_bt(a.data(), bt.data(), dirty.data(), m, k, n, nullptr,
                         /*accumulate=*/false);
        EXPECT_EQ(zeroed, dirty) << "gemm_bt " << m << "x" << k << "x" << n;
      }
    }
  }
}

// ---- ISA dispatch sweep ---------------------------------------------------

// Pins every compiled-and-executable FMNET_KERNEL_ISA variant (portable /
// avx2 / avx512) in one process and holds each to the same GEMM-vs-
// reference tolerances. Restores the startup dispatch on exit so test
// order never leaks a pinned ISA.
TEST(GemmKernels, AllIsaVariantsMatchReference) {
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(115);
  const std::int64_t m = 45;
  const std::int64_t k = 33;
  // n spans the skinny widths (1, 8, 16) and a panel-path width (63).
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{8},
                               std::int64_t{16}, std::int64_t{63}}) {
    const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
    const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
    std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0f);
    kernels::reference_gemm(a.data(), b.data(), ref.data(), m, k, n);
    for (const kernels::Isa isa : kernels::compiled_isas()) {
      if (!kernels::isa_supported(isa)) continue;
      kernels::set_isa(isa);
      std::vector<float> fast(static_cast<std::size_t>(m * n), 0.0f);
      kernels::gemm(a.data(), b.data(), fast.data(), m, k, n);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(fast[i], ref[i], gemm_tol(k))
            << kernels::isa_name(isa) << " n=" << n << " element " << i;
      }
    }
  }
  kernels::set_isa(startup);
}

// The skinny kernel's determinism contract (kernels_skinny.inc): an output
// row is independent of its position within the call, on every ISA. This
// is the regression test for the batched-inference bug where a kMR-row
// quad body contracted FMAs asymmetrically and windows starting at
// different quad phases diverged from the per-window loop. On the AVX-512
// clones n == 8 runs four rows per pass (kernels_avx512.inc), so the
// offsets 1-3 move every row through every phase of that pass and between
// the passes and the row tail; k covers full 16-step groups, leftover
// kKU-groups and single k-steps (which take the single-row body). gemm_at
// reaches the same kernels with the unit stride on the other side.
TEST(GemmKernels, SkinnyRowsIndependentOfRowPosition) {
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(116);
  const std::int64_t m = 90;  // 90 % kMR != 0: rows cover every quad phase
  for (const std::int64_t k :
       {std::int64_t{4}, std::int64_t{16}, std::int64_t{19}, std::int64_t{28},
        std::int64_t{100}, std::int64_t{300}, std::int64_t{301}}) {
    for (const std::int64_t n : {std::int64_t{1}, std::int64_t{8},
                                 std::int64_t{16}}) {
      const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
      const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
      for (const kernels::Isa isa : kernels::compiled_isas()) {
        if (!kernels::isa_supported(isa)) continue;
        kernels::set_isa(isa);
        std::vector<float> full(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> full_at = full;
        kernels::gemm(a.data(), b.data(), full.data(), m, k, n);
        // `a` read as the [k, m] buffer of gemm_at.
        kernels::gemm_at(a.data(), b.data(), full_at.data(), m, k, n);
        for (const std::int64_t i0 : {std::int64_t{1}, std::int64_t{2},
                                      std::int64_t{3}, std::int64_t{17}}) {
          std::vector<float> part(static_cast<std::size_t>((m - i0) * n),
                                  0.0f);
          std::vector<float> part_at = part;
          kernels::gemm(a.data() + i0 * k, b.data(), part.data(), m - i0, k,
                        n);
          kernels::gemm_at(a.data() + i0, b.data(), part_at.data(), m - i0,
                           k, n, nullptr, true, {m, 0, 0});
          for (std::size_t i = 0; i < part.size(); ++i) {
            const std::size_t f = static_cast<std::size_t>(i0 * n) + i;
            ASSERT_EQ(part[i], full[f])
                << kernels::isa_name(isa) << " gemm k=" << k << " n=" << n
                << " offset " << i0 << " element " << i;
            ASSERT_EQ(part_at[i], full_at[f])
                << kernels::isa_name(isa) << " gemm_at k=" << k
                << " n=" << n << " offset " << i0 << " element " << i;
          }
        }
      }
    }
  }
  kernels::set_isa(startup);
}

// Row strides only move addresses (kernels.h RowStrides): a GEMM over
// column blocks of wider buffers equals, bit for bit, the dense GEMM over
// copies of those blocks — for all three layouts, skinny and panel widths,
// both accumulate modes, on every ISA.
TEST(GemmKernels, RowStridesMatchDenseBlocks) {
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(118);
  const std::int64_t m = 37;
  const std::int64_t k = 29;
  const std::int64_t pad = 5;  // every strided row carries 5 foreign floats
  // Copies rows x cols starting at column `col` of a buffer whose rows are
  // `ld` floats apart.
  const auto block = [](const std::vector<float>& src, std::int64_t rows,
                        std::int64_t cols, std::int64_t ld, std::int64_t col) {
    std::vector<float> out(static_cast<std::size_t>(rows * cols));
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        out[static_cast<std::size_t>(r * cols + c)] =
            src[static_cast<std::size_t>(r * ld + col + c)];
      }
    }
    return out;
  };
  for (const std::int64_t n : {std::int64_t{8}, std::int64_t{16},
                               std::int64_t{21}}) {
    for (const bool acc : {true, false}) {
      for (const kernels::Isa isa : kernels::compiled_isas()) {
        if (!kernels::isa_supported(isa)) continue;
        kernels::set_isa(isa);
        // gemm: A [m,k] in ld k+pad, B [k,n] in ld n+pad, C in ld n+pad.
        const std::int64_t lda = k + pad, ldb = n + pad, ldc = n + pad;
        const auto a = random_buffer(static_cast<std::size_t>(m * lda), rng);
        const auto b = random_buffer(static_cast<std::size_t>(k * ldb), rng);
        const auto c0 = random_buffer(static_cast<std::size_t>(m * ldc), rng);
        std::vector<float> c = c0;
        kernels::gemm(a.data() + 2, b.data() + 3, c.data() + 1, m, k, n,
                      nullptr, acc, {lda, ldb, ldc});
        const auto ad = block(a, m, k, lda, 2);
        const auto bd = block(b, k, n, ldb, 3);
        auto cd = block(c0, m, n, ldc, 1);
        kernels::gemm(ad.data(), bd.data(), cd.data(), m, k, n, nullptr, acc);
        ASSERT_EQ(block(c, m, n, ldc, 1), cd)
            << kernels::isa_name(isa) << " gemm n=" << n << " acc=" << acc;

        // gemm_at: A^T [k,m] in ld m+pad.
        const std::int64_t ldat = m + pad;
        const auto at = random_buffer(static_cast<std::size_t>(k * ldat), rng);
        c = c0;
        kernels::gemm_at(at.data() + 4, b.data() + 3, c.data() + 1, m, k, n,
                         nullptr, acc, {ldat, ldb, ldc});
        const auto atd = block(at, k, m, ldat, 4);
        cd = block(c0, m, n, ldc, 1);
        kernels::gemm_at(atd.data(), bd.data(), cd.data(), m, k, n, nullptr,
                         acc);
        ASSERT_EQ(block(c, m, n, ldc, 1), cd)
            << kernels::isa_name(isa) << " gemm_at n=" << n << " acc=" << acc;

        // gemm_bt: B^T [n,k] in ld k+pad.
        const std::int64_t ldbt = k + pad;
        const auto bt = random_buffer(static_cast<std::size_t>(n * ldbt), rng);
        c = c0;
        kernels::gemm_bt(a.data() + 2, bt.data() + 1, c.data() + 1, m, k, n,
                         nullptr, acc, {lda, ldbt, ldc});
        const auto btd = block(bt, n, k, ldbt, 1);
        cd = block(c0, m, n, ldc, 1);
        kernels::gemm_bt(ad.data(), btd.data(), cd.data(), m, k, n, nullptr,
                         acc);
        ASSERT_EQ(block(c, m, n, ldc, 1), cd)
            << kernels::isa_name(isa) << " gemm_bt n=" << n << " acc=" << acc;
        // Columns outside the block are untouched.
        for (std::int64_t r = 0; r < m; ++r) {
          for (std::int64_t col = 0; col < ldc; ++col) {
            if (col >= 1 && col < 1 + n) continue;
            const auto e = static_cast<std::size_t>(r * ldc + col);
            ASSERT_EQ(c[e], c0[e]) << "row " << r << " col " << col;
          }
        }
      }
    }
  }
  kernels::set_isa(startup);
}

// ---- fast math helpers ----------------------------------------------------

TEST(FastMath, ExpMatchesLibmWithinTolerance) {
  // softmax and the attention block run on fast_expf; keep it honest
  // against libm over the whole clamped domain.
  for (float x = -87.0f; x <= 88.0f; x += 0.0137f) {
    const float ref = std::exp(x);
    const float got = detail::fast_expf(x);
    ASSERT_NEAR(got, ref, 5e-7f * ref) << "x = " << x;
  }
  // Out-of-range inputs clamp instead of overflowing to inf or 0.
  EXPECT_GT(detail::fast_expf(-1000.0f), 0.0f);
  EXPECT_TRUE(std::isfinite(detail::fast_expf(1000.0f)));
}

TEST(FastMath, TanhMatchesLibmWithinTolerance) {
  // GELU's forward and gradient run on fast_tanhf.
  for (float x = -12.0f; x <= 12.0f; x += 0.0041f) {
    ASSERT_NEAR(detail::fast_tanhf(x), std::tanh(x), 2e-6f) << "x = " << x;
  }
  EXPECT_FLOAT_EQ(detail::fast_tanhf(50.0f), 1.0f);
  EXPECT_FLOAT_EQ(detail::fast_tanhf(-50.0f), -1.0f);
}

TEST(GemmKernels, PanelBoundaries) {
  // k > kKC exercises multi-panel packing; m > kRowBlock multi-block rows.
  fmnet::Rng rng(104);
  const std::int64_t m = kernels::kRowBlock * 2 + 5;
  const std::int64_t k = kernels::kKC + 37;
  const std::int64_t n = kernels::kKU * 13 + 3;
  const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
  const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
  std::vector<float> fast(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref = fast;
  kernels::gemm(a.data(), b.data(), fast.data(), m, k, n);
  kernels::reference_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(fast[i], ref[i], gemm_tol(k)) << "elem " << i;
  }
}

// ---- lane-count bit-identity ----------------------------------------------

TEST(GemmKernels, BitIdenticalAcrossLaneCounts) {
  // Big enough that 2*m*k*n clears kParallelFlops, so the 8-lane pool
  // really shards row blocks. Exact equality required, not tolerance.
  fmnet::Rng rng(105);
  const std::int64_t m = 160;
  const std::int64_t k = 96;
  const std::int64_t n = 144;
  ASSERT_GE(2 * m * k * n, kernels::kParallelFlops);
  const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
  const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);

  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  std::vector<float> c1(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c8 = c1;
  kernels::gemm(a.data(), b.data(), c1.data(), m, k, n, &one);
  kernels::gemm(a.data(), b.data(), c8.data(), m, k, n, &eight);
  EXPECT_EQ(c1, c8);

  std::vector<float> t1(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> t8 = t1;
  const auto bt = random_buffer(static_cast<std::size_t>(n * k), rng);
  kernels::gemm_bt(a.data(), bt.data(), t1.data(), m, k, n, &one);
  kernels::gemm_bt(a.data(), bt.data(), t8.data(), m, k, n, &eight);
  EXPECT_EQ(t1, t8);
}

// ---- matmul gradients through the new kernels -----------------------------

TEST(KernelAutograd, MatmulBatchedSharedRhsGradients) {
  fmnet::Rng rng(106);
  check_gradients({rand_input({3, 2, 4}, rng), rand_input({4, 3}, rng)},
                  [](const auto& in) {
                    return sum(square(matmul(in[0], in[1])));
                  });
}

TEST(KernelAutograd, MatmulFullyBatchedGradients) {
  fmnet::Rng rng(107);
  check_gradients({rand_input({2, 3, 4}, rng), rand_input({2, 4, 2}, rng)},
                  [](const auto& in) {
                    return sum(square(matmul(in[0], in[1])));
                  });
}

// ---- fused ops vs primitive compositions ----------------------------------

TEST(FusedOps, LinearActMatchesPrimitives) {
  fmnet::Rng rng(108);
  const Tensor x = rand_input({3, 5}, rng);
  const Tensor w = rand_input({5, 4}, rng);
  const Tensor b = rand_input({4}, rng);
  for (const Act act : {Act::kNone, Act::kRelu, Act::kGelu}) {
    const Tensor fused = linear_act(x, w, b, act);
    Tensor prim = matmul(x, w) + b;
    if (act == Act::kRelu) prim = relu(prim);
    if (act == Act::kGelu) prim = gelu(prim);
    ASSERT_EQ(fused.shape(), prim.shape());
    for (std::size_t i = 0; i < fused.data().size(); ++i) {
      EXPECT_NEAR(fused.data()[i], prim.data()[i], 1e-5f) << "elem " << i;
    }
  }
}

TEST(FusedOps, LinearActGradients) {
  fmnet::Rng rng(109);
  for (const Act act : {Act::kNone, Act::kRelu, Act::kGelu}) {
    check_gradients({rand_input({2, 3, 4}, rng), rand_input({4, 3}, rng),
                     rand_input({3}, rng)},
                    [act](const auto& in) {
                      return sum(square(
                          linear_act(in[0], in[1], in[2], act)));
                    });
  }
}

TEST(FusedOps, LayerNormMatchesPrimitives) {
  fmnet::Rng rng(110);
  const Tensor x = rand_input({4, 6}, rng);
  const Tensor gamma = rand_input({6}, rng);
  const Tensor beta = rand_input({6}, rng);
  const float eps = 1e-5f;
  const Tensor fused = layer_norm(x, gamma, beta, eps);

  const Tensor mu = mean(x, 1, /*keepdim=*/true);
  const Tensor centered = x - mu;
  const Tensor var = mean(square(centered), 1, /*keepdim=*/true);
  const Tensor prim =
      centered / tensor::sqrt(add_scalar(var, eps)) * gamma + beta;
  for (std::size_t i = 0; i < fused.data().size(); ++i) {
    EXPECT_NEAR(fused.data()[i], prim.data()[i], 1e-5f) << "elem " << i;
  }
}

TEST(FusedOps, LayerNormGradients) {
  fmnet::Rng rng(111);
  check_gradients({rand_input({2, 2, 5}, rng), rand_input({5}, rng),
                   rand_input({5}, rng)},
                  [](const auto& in) {
                    const Tensor w = Tensor::from_vector(
                        {1, -1, 2, 0.5f, -2}, {5});
                    return sum(layer_norm(in[0], in[1], in[2]) * w);
                  });
}

TEST(FusedOps, SoftmaxLastAxisAndStridedAgree) {
  // The inner==1 fast path and the general strided path must compute the
  // same distribution: softmax over axis 2 of x equals softmax over axis 1
  // of x transposed.
  fmnet::Rng rng(112);
  const Tensor x = rand_input({2, 3, 4}, rng);
  const Tensor fast = softmax(x, 2);
  const Tensor xt = transpose(x, 1, 2);  // [2, 4, 3]
  const Tensor strided = softmax(xt, 1);
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(fast.at({b, i, j}), strided.at({b, j, i}), 1e-6f);
      }
    }
  }
}

TEST(FusedOps, SoftmaxStridedGradients) {
  fmnet::Rng rng(113);
  check_gradients({rand_input({3, 4}, rng)}, [](const auto& in) {
    const Tensor s = softmax(in[0], 0);  // strided axis (inner > 1)
    const Tensor w = Tensor::from_vector(
        {1, 2, 3, 4, -1, -2, -3, -4, 0.5f, 1, 1.5f, 2}, {3, 4});
    return sum(s * w);
  });
}

TEST(FusedOps, ScaledMatmulBtMatchesPrimitives) {
  fmnet::Rng rng(114);
  const Tensor q = rand_input({2, 3, 5}, rng);
  const Tensor k = rand_input({2, 4, 5}, rng);
  const float scale = 0.37f;
  const Tensor fused = scaled_matmul_bt(q, k, scale);
  const Tensor prim = mul_scalar(matmul(q, transpose(k, 1, 2)), scale);
  ASSERT_EQ(fused.shape(), prim.shape());
  for (std::size_t i = 0; i < fused.data().size(); ++i) {
    EXPECT_NEAR(fused.data()[i], prim.data()[i], 1e-5f) << "elem " << i;
  }
}

TEST(FusedOps, ScaledMatmulBtGradients) {
  fmnet::Rng rng(115);
  check_gradients({rand_input({2, 3, 4}, rng), rand_input({2, 2, 4}, rng)},
                  [](const auto& in) {
                    return sum(square(
                        scaled_matmul_bt(in[0], in[1], 0.5f)));
                  });
  check_gradients({rand_input({3, 4}, rng), rand_input({2, 4}, rng)},
                  [](const auto& in) {
                    return sum(square(scaled_matmul_bt(in[0], in[1], 2.0f)));
                  });
}

TEST(FusedOps, AttentionMatchesPrimitives) {
  fmnet::Rng rng(116);
  const Tensor q = rand_input({2, 3, 5}, rng);
  const Tensor k = rand_input({2, 4, 5}, rng);
  const Tensor v = rand_input({2, 4, 5}, rng);
  const float scale = 0.61f;
  const Tensor fused = attention(q, k, v, /*heads=*/1, scale);
  const Tensor prim = matmul(softmax(scaled_matmul_bt(q, k, scale), 2), v);
  ASSERT_EQ(fused.shape(), prim.shape());
  for (std::size_t i = 0; i < fused.data().size(); ++i) {
    EXPECT_NEAR(fused.data()[i], prim.data()[i], 1e-5f) << "elem " << i;
  }
}

TEST(FusedOps, AttentionGradients) {
  fmnet::Rng rng(117);
  check_gradients({rand_input({2, 3, 4}, rng), rand_input({2, 3, 4}, rng),
                   rand_input({2, 3, 4}, rng)},
                  [](const auto& in) {
                    return sum(square(
                        attention(in[0], in[1], in[2], 1, 0.5f)));
                  });
  // Cross-attention shape: queries and keys of different lengths.
  check_gradients({rand_input({1, 2, 3}, rng), rand_input({1, 4, 3}, rng),
                   rand_input({1, 4, 3}, rng)},
                  [](const auto& in) {
                    return sum(square(
                        attention(in[0], in[1], in[2], 1, 1.0f)));
                  });
}

// ---- backward kernels vs the scalar loops they replaced ---------------------

// kernels_backward.cpp is compiled without FMA contraction, so on every ISA
// each kernel must return exactly what the plain scalar loop below returns
// when it, too, rounds every multiply and add: the SSE2 baseline build has
// no FMA to contract into. A baseline that has FMA (a build whose compiler
// flags target such a CPU) may fuse the reference loops, which then stop
// being that reference.
#if defined(__FMA__)
#define FMNET_SKIP_IF_REFERENCE_CONTRACTS() \
  GTEST_SKIP() << "baseline has FMA: the scalar reference may contract"
#else
#define FMNET_SKIP_IF_REFERENCE_CONTRACTS() (void)0
#endif

const std::int64_t kBackwardLengths[] = {17, 300, 301};

TEST(BackwardKernels, GeluGradMulMatchesScalarLoop) {
  FMNET_SKIP_IF_REFERENCE_CONTRACTS();
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(119);
  for (const std::int64_t n : kBackwardLengths) {
    auto z = random_buffer(static_cast<std::size_t>(n), rng);
    z[0] = 12.0f;  // past fast_tanhf's clamp
    z[1] = -12.0f;
    const auto dy = random_buffer(static_cast<std::size_t>(n), rng);
    std::vector<float> ref(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ref[i] = dy[i] * detail::gelu_grad(z[i]);
    }
    for (const kernels::Isa isa : kernels::compiled_isas()) {
      if (!kernels::isa_supported(isa)) continue;
      kernels::set_isa(isa);
      std::vector<float> got(static_cast<std::size_t>(n));
      kernels::gelu_grad_mul(dy.data(), z.data(), got.data(), n);
      ASSERT_EQ(got, ref) << kernels::isa_name(isa) << " n=" << n;
    }
  }
  kernels::set_isa(startup);
}

TEST(BackwardKernels, SoftmaxJacobianMatchesScalarLoop) {
  FMNET_SKIP_IF_REFERENCE_CONTRACTS();
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(120);
  const std::int64_t rows = 11;  // two four-row blocks and a tail of three
  const float scale = 0.35355339f;
  for (const std::int64_t len : kBackwardLengths) {
    const auto numel = static_cast<std::size_t>(rows * len);
    const auto y = random_buffer(numel, rng);
    const auto d0 = random_buffer(numel, rng);
    std::vector<float> ref = d0;
    for (std::int64_t r = 0; r < rows; ++r) {
      float* drow = ref.data() + r * len;
      const float* yrow = y.data() + r * len;
      float dot = 0.0f;
      for (std::int64_t j = 0; j < len; ++j) dot += drow[j] * yrow[j];
      for (std::int64_t j = 0; j < len; ++j) {
        drow[j] = scale * yrow[j] * (drow[j] - dot);
      }
    }
    for (const kernels::Isa isa : kernels::compiled_isas()) {
      if (!kernels::isa_supported(isa)) continue;
      kernels::set_isa(isa);
      std::vector<float> got = d0;
      kernels::softmax_jacobian_rows(got.data(), y.data(), rows, len, scale);
      ASSERT_EQ(got, ref) << kernels::isa_name(isa) << " len=" << len;
    }
  }
  kernels::set_isa(startup);
}

TEST(BackwardKernels, LayerNormGradMatchesScalarLoop) {
  FMNET_SKIP_IF_REFERENCE_CONTRACTS();
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(121);
  // Each length both as the feature width (11 rows) and as the row count
  // (the model's 16 features).
  for (const std::int64_t len : kBackwardLengths) {
    for (const auto& [rows, f] : {std::pair{std::int64_t{11}, len},
                                  std::pair{len, std::int64_t{16}}}) {
      const auto numel = static_cast<std::size_t>(rows * f);
      const auto x = random_buffer(numel, rng);
      const auto dy = random_buffer(numel, rng);
      const auto gamma = random_buffer(static_cast<std::size_t>(f), rng);
      std::vector<float> stats(static_cast<std::size_t>(2 * rows));
      for (std::size_t r = 0; r < stats.size() / 2; ++r) {
        stats[2 * r] = static_cast<float>(rng.normal(0.0, 0.3));
        stats[2 * r + 1] = static_cast<float>(rng.uniform(0.5, 2.0));
      }
      const float inv_f = 1.0f / static_cast<float>(f);
      const auto dx0 = random_buffer(numel, rng);
      const auto dg0 = random_buffer(static_cast<std::size_t>(f), rng);
      const auto db0 = random_buffer(static_cast<std::size_t>(f), rng);
      std::vector<float> dx = dx0, dg = dg0, db = db0;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float mu = stats[static_cast<std::size_t>(2 * r)];
        const float inv_std = stats[static_cast<std::size_t>(2 * r + 1)];
        const float* grow = dy.data() + r * f;
        const float* xrow = x.data() + r * f;
        for (std::int64_t j = 0; j < f; ++j) {
          const float xhat = (xrow[j] - mu) * inv_std;
          dg[static_cast<std::size_t>(j)] += grow[j] * xhat;
          db[static_cast<std::size_t>(j)] += grow[j];
        }
        float s1 = 0.0f;
        float s2 = 0.0f;
        for (std::int64_t j = 0; j < f; ++j) {
          const float dxhat = grow[j] * gamma[static_cast<std::size_t>(j)];
          const float xhat = (xrow[j] - mu) * inv_std;
          s1 += dxhat;
          s2 += dxhat * xhat;
        }
        s1 *= inv_f;
        s2 *= inv_f;
        for (std::int64_t j = 0; j < f; ++j) {
          const float dxhat = grow[j] * gamma[static_cast<std::size_t>(j)];
          const float xhat = (xrow[j] - mu) * inv_std;
          dx[static_cast<std::size_t>(r * f + j)] +=
              inv_std * (dxhat - s1 - xhat * s2);
        }
      }
      for (const kernels::Isa isa : kernels::compiled_isas()) {
        if (!kernels::isa_supported(isa)) continue;
        kernels::set_isa(isa);
        std::vector<float> gx = dx0, gg = dg0, gb = db0;
        kernels::layer_norm_grad_rows(dy.data(), x.data(), stats.data(),
                                      gamma.data(), rows, f, inv_f,
                                      gx.data(), gg.data(), gb.data());
        ASSERT_EQ(gx, dx) << kernels::isa_name(isa) << " rows=" << rows
                          << " f=" << f;
        ASSERT_EQ(gg, dg) << kernels::isa_name(isa) << " rows=" << rows;
        ASSERT_EQ(gb, db) << kernels::isa_name(isa) << " rows=" << rows;
        // A null gradient is skipped and the others are unchanged by that.
        std::vector<float> only_x = dx0;
        kernels::layer_norm_grad_rows(dy.data(), x.data(), stats.data(),
                                      gamma.data(), rows, f, inv_f,
                                      only_x.data(), nullptr, nullptr);
        ASSERT_EQ(only_x, dx) << kernels::isa_name(isa);
        std::vector<float> only_g = dg0;
        kernels::layer_norm_grad_rows(dy.data(), x.data(), stats.data(),
                                      gamma.data(), rows, f, inv_f, nullptr,
                                      only_g.data(), nullptr);
        ASSERT_EQ(only_g, dg) << kernels::isa_name(isa);
      }
    }
  }
  kernels::set_isa(startup);
}

// ---- head-strided attention vs the split/merge composition ------------------

struct AttnCase {
  std::int64_t heads;
  std::int64_t t;  // query length
  std::int64_t s;  // key/value length
  std::int64_t dh;
};

void PrintTo(const AttnCase& c, std::ostream* os) {
  *os << "h" << c.heads << "_t" << c.t << "_s" << c.s << "_dh" << c.dh;
}

class HeadStridedAttention : public ::testing::TestWithParam<AttnCase> {};

// [B, T, H*dh] -> [B*H, T, dh] and back, from the reshape/transpose ops:
// how multi-head attention split and merged heads before the attention
// op addressed them in place.
Tensor split_heads_copy(const Tensor& x, std::int64_t heads) {
  const std::int64_t b = x.dim(0);
  const std::int64_t t = x.dim(1);
  const std::int64_t dh = x.dim(2) / heads;
  return reshape(transpose(reshape(x, {b, t, heads, dh}), 1, 2),
                 {b * heads, t, dh});
}

Tensor merge_heads_copy(const Tensor& x, std::int64_t b,
                        std::int64_t heads) {
  const std::int64_t t = x.dim(1);
  const std::int64_t dh = x.dim(2);
  return reshape(transpose(reshape(x, {b, heads, t, dh}), 1, 2),
                 {b, t, heads * dh});
}

// Bit-for-bit, on every ISA: output and the three input gradients, in
// training and (output only) under InferenceGuard.
TEST_P(HeadStridedAttention, MatchesSplitPerHeadMerge) {
  const AttnCase c = GetParam();
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(122);
  const std::int64_t b = 2;
  const std::int64_t d = c.heads * c.dh;
  const float scale = 1.0f / std::sqrt(static_cast<float>(c.dh));
  const Tensor q = rand_input({b, c.t, d}, rng);
  const Tensor k = rand_input({b, c.s, d}, rng);
  const Tensor v = rand_input({b, c.s, d}, rng);
  // Weighting the output makes every upstream gradient element distinct.
  const Tensor w = Tensor::randn({b, c.t, d}, rng);
  const std::vector<Tensor> inputs{q, k, v};
  for (const kernels::Isa isa : kernels::compiled_isas()) {
    if (!kernels::isa_supported(isa)) continue;
    kernels::set_isa(isa);
    for (Tensor in : inputs) in.zero_grad();
    const Tensor strided = attention(q, k, v, c.heads, scale);
    sum(strided * w).backward();
    std::vector<std::vector<float>> strided_grads;
    for (const Tensor& in : inputs) strided_grads.push_back(in.grad());

    for (Tensor in : inputs) in.zero_grad();
    const Tensor merged = merge_heads_copy(
        attention(split_heads_copy(q, c.heads), split_heads_copy(k, c.heads),
                  split_heads_copy(v, c.heads), 1, scale),
        b, c.heads);
    sum(merged * w).backward();

    ASSERT_EQ(strided.shape(), merged.shape());
    ASSERT_EQ(strided.data(), merged.data()) << kernels::isa_name(isa);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(strided_grads[i], inputs[i].grad())
          << kernels::isa_name(isa) << " grad of input " << i;
    }

    InferenceGuard guard;
    const Tensor infer = attention(q, k, v, c.heads, scale);
    ASSERT_EQ(infer.data(), strided.data()) << kernels::isa_name(isa);
  }
  kernels::set_isa(startup);
}

// T not a multiple of 16 (or of the four-row pass); a cross-attention
// shape; the model's head width 8 and a panel-path width 20. Those four
// have S % 4 != 0, so they run the composed forward on every ISA; the
// last two (a T and S tail mod 16, and the serving model's shape) reach
// the AVX-512 key-major body. PrintTo names each case (h2_t19_s19_dh8), so
// its ctest name is stable.
INSTANTIATE_TEST_SUITE_P(
    Shapes, HeadStridedAttention,
    ::testing::Values(AttnCase{1, 19, 19, 8}, AttnCase{2, 19, 19, 8},
                      AttnCase{2, 37, 21, 8}, AttnCase{2, 19, 23, 20},
                      AttnCase{2, 37, 36, 8}, AttnCase{1, 100, 100, 8}));

// ---- attention kernel vs the composition it replaced ------------------------

// kernels::attention_rows and attention_rows_grad against the
// compositions their bit contracts name (kernels.h), on every ISA: the
// output in inference (probs null), the output plus P in training, and
// dQ, dK and dV from the P the forward kept, accumulated into nonzero
// gradients. Where the AVX-512 key-major code runs (head width 8,
// S % 4 == 0; the backward also needs T % 4 == 0), its bits are the ones
// GCC's -O3 build of the composition computes, which Debug and -O1
// sanitizer builds contract differently. So every build holds that code
// to spelled_attention and spelled_attention_grad, which write the same
// fused and unfused operations out one element at a time, and the GCC
// Release build (FMNET_RELEASE_CONTRACTION, tests/CMakeLists.txt) also
// holds it to the composition itself. That comparison pins GCC 12.2's -O3
// contraction of the composition: another GCC that contracts it
// differently fails it on AVX-512 hosts, and its production AVX-512 bits
// would then differ from the composition's. Other ISAs and shapes run the
// composition, and are held to it in every build.

// detail::fast_expf with the fusions the -O3 vectorised softmax makes.
float spelled_expf(float x) {
  x = x < -87.0f ? -87.0f : (x > 88.0f ? 88.0f : x);
  const float n =
      std::fma(x, 1.44269504088896341f, 12582912.0f) - 12582912.0f;
  float r = std::fma(-n, 0.693359375f, x);
  r = std::fma(n, 2.12194440e-4f, r);
  float p = std::fma(r, 1.9875691500e-4f, 1.3981999507e-3f);
  p = std::fma(p, r, 8.3334519073e-3f);
  p = std::fma(p, r, 4.1665795894e-2f);
  p = std::fma(p, r, 1.6666665459e-1f);
  p = std::fma(p, r, 5.0000001201e-1f);
  const float pr = p * r;
  p = std::fma(pr, r, r) + 1.0f;
  return std::bit_cast<float>(std::bit_cast<std::int32_t>(p) +
                              (static_cast<std::int32_t>(n) << 23));
}

// The k = 8 dot of two rows as the panel kernel contracts its k = 8 pass.
float spelled_dot8(const float* x, const float* y) {
  float lo = x[1] * y[1];
  lo = std::fma(x[0], y[0], lo);
  lo = std::fma(x[2], y[2], lo);
  lo = std::fma(x[3], y[3], lo);
  float hi = x[5] * y[5];
  hi = std::fma(x[4], y[4], hi);
  hi = std::fma(x[6], y[6], hi);
  hi = std::fma(x[7], y[7], hi);
  return lo + hi;
}

// sum_{p < k} a(p) * b(p) (k % 4 == 0) grouped as the n = 8 skinny kernel
// groups a row: four partial sums owning every fourth quad of p, leftover
// quads into the first, each quad contracted as skinny8_group4 does.
template <class A, class B>
float spelled_skinny_sum(std::int64_t k, const A& a, const B& b) {
  float acc[4] = {};
  const auto quad = [&](std::int64_t p, float& to) {
    float sum = a(p + 1) * b(p + 1);
    sum = std::fma(a(p), b(p), sum);
    sum = std::fma(a(p + 2), b(p + 2), sum);
    sum = std::fma(a(p + 3), b(p + 3), sum);
    to += sum;
  };
  std::int64_t p = 0;
  for (; p + 16 <= k; p += 16) {
    for (std::int64_t g = 0; g < 4; ++g) quad(p + 4 * g, acc[g]);
  }
  for (; p < k; p += 4) quad(p, acc[0]);
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

// x * y rounded on its own, even where the compiler could contract it
// into a following add.
float unfused_product(float x, float y) {
  volatile float prod = x * y;
  return prod;
}

// One head (width 8) of attention_rows for t query rows, one row at a
// time: scores as the panel kernel contracts its k = 8 pass, softmax with
// sixteen partial sums, P @ V grouped as the n = 8 skinny kernel groups it.
// No product here feeds a plain add, so nothing is left to contract.
void spelled_attention(const float* q, const float* k, const float* v,
                       float* out, float* probs, std::int64_t t,
                       std::int64_t s, std::int64_t ld, float scale) {
  std::vector<float> e(static_cast<std::size_t>(s));
  for (std::int64_t i = 0; i < t; ++i) {
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < s; ++j) {
      e[j] = spelled_dot8(q + i * ld, k + j * ld);
      mx = std::max(mx, e[j]);
    }
    float psum[16] = {};
    for (std::int64_t j = 0; j < s; ++j) {
      e[j] = spelled_expf(scale * (e[j] - mx));
      psum[j % 16] += e[j];
    }
    float denom = 0.0f;
    for (const float ps : psum) denom += ps;
    const float inv = 1.0f / denom;
    for (std::int64_t j = 0; j < s; ++j) {
      e[j] *= inv;
      probs[i * s + j] = e[j];
    }
    for (std::int64_t c = 0; c < 8; ++c) {
      out[i * ld + c] = spelled_skinny_sum(
          s, [&](std::int64_t p) { return e[p]; },
          [&](std::int64_t p) { return v[p * ld + c]; });
    }
  }
}

// One head of attention_rows_grad from row-major P, one element at a
// time: dP as the scores' k = 8 product, the Jacobian's row dot unfused in
// key order as softmax_jacobian_rows forms it, and the three n = 8
// products grouped as the skinny kernel groups them, each added into its
// gradient.
void spelled_attention_grad(const float* q, const float* k, const float* v,
                            const float* dy, const float* probs, float* dq,
                            float* dk, float* dv, std::int64_t t,
                            std::int64_t s, std::int64_t ld, float scale) {
  std::vector<float> dz(static_cast<std::size_t>(t * s));
  for (std::int64_t i = 0; i < t; ++i) {
    const float* pi = probs + i * s;
    float* zi = dz.data() + i * s;
    float dot = 0.0f;
    for (std::int64_t j = 0; j < s; ++j) {
      zi[j] = spelled_dot8(dy + i * ld, v + j * ld);
      dot += unfused_product(zi[j], pi[j]);
    }
    for (std::int64_t j = 0; j < s; ++j) {
      zi[j] = (scale * pi[j]) * (zi[j] - dot);
    }
    for (std::int64_t c = 0; c < 8; ++c) {
      dq[i * ld + c] += spelled_skinny_sum(
          s, [&](std::int64_t p) { return zi[p]; },
          [&](std::int64_t p) { return k[p * ld + c]; });
    }
  }
  for (std::int64_t j = 0; j < s; ++j) {
    for (std::int64_t c = 0; c < 8; ++c) {
      dv[j * ld + c] += spelled_skinny_sum(
          t, [&](std::int64_t p) { return probs[p * s + j]; },
          [&](std::int64_t p) { return dy[p * ld + c]; });
      dk[j * ld + c] += spelled_skinny_sum(
          t, [&](std::int64_t p) { return dz[p * s + j]; },
          [&](std::int64_t p) { return q[p * ld + c]; });
    }
  }
}

// Per-head probs blocks, 64-byte aligned as attention_rows requires.
class ProbsBlocks {
 public:
  ProbsBlocks(std::int64_t heads, std::int64_t t, std::int64_t s)
      : t_(t), s_(s), stride_(kernels::attention_probs_floats(t, s)),
        storage_(static_cast<std::size_t>(heads * stride_ + 16), -7.25f) {
    const auto addr = reinterpret_cast<std::uintptr_t>(storage_.data());
    base_ = storage_.data() + ((64 - addr % 64) % 64) / sizeof(float);
  }
  float* head(std::int64_t h) { return base_ + h * stride_; }

  // Head h's P as dense [t][s] rows, read in `layout`.
  std::vector<float> rows(std::int64_t h, kernels::ProbsLayout layout) {
    const float* blk = head(h);
    std::vector<float> out(static_cast<std::size_t>(t_ * s_));
    for (std::int64_t i = 0; i < t_; ++i) {
      for (std::int64_t j = 0; j < s_; ++j) {
        out[i * s_ + j] = layout == kernels::ProbsLayout::kKeyMajor
                              ? blk[((i / 16) * s_ + j) * 16 + i % 16]
                              : blk[i * s_ + j];
      }
    }
    return out;
  }

 private:
  std::int64_t t_, s_, stride_;
  std::vector<float> storage_;
  float* base_;
};

struct AttnOutputs {
  std::vector<float> out;    // [t, heads * 8]
  std::vector<float> probs;  // [heads, t, s], row-major
  kernels::ProbsLayout layout = kernels::ProbsLayout::kRowMajor;
};

// Runs every head of [t, heads * 8] q and [s, heads * 8] k, v through
// `head` (one head's q, k, v, out, probs; returns the probs layout) into
// fresh garbage-filled buffers. `blocks`, when given, keeps the probs as
// written.
template <class HeadFn>
AttnOutputs run_heads(const std::vector<float>& q, const std::vector<float>& k,
                      const std::vector<float>& v, std::int64_t heads,
                      std::int64_t t, std::int64_t s, bool keep_probs,
                      HeadFn head, ProbsBlocks* blocks = nullptr) {
  ProbsBlocks local(keep_probs ? heads : 0, t, s);
  ProbsBlocks& pb = blocks != nullptr ? *blocks : local;
  AttnOutputs r{std::vector<float>(static_cast<std::size_t>(t * heads * 8),
                                   -3.5f),
                {}};
  for (std::int64_t h = 0; h < heads; ++h) {
    r.layout = head(q.data() + h * 8, k.data() + h * 8, v.data() + h * 8,
                    r.out.data() + h * 8, keep_probs ? pb.head(h) : nullptr);
  }
  for (std::int64_t h = 0; keep_probs && h < heads; ++h) {
    const auto rows = pb.rows(h, r.layout);
    r.probs.insert(r.probs.end(), rows.begin(), rows.end());
  }
  return r;
}

struct AttnGrads {
  std::vector<float> dq, dk, dv;
};

bool runs_key_major_body(kernels::Isa isa) {
  return isa == kernels::Isa::kAvx512;
}

void check_attention_kernel(std::int64_t heads, std::int64_t t,
                            std::int64_t s, float q_gain, fmnet::Rng& rng) {
  const std::int64_t ld = heads * 8;
  const float scale = 1.0f / std::sqrt(8.0f);
  auto q = random_buffer(static_cast<std::size_t>(t * ld), rng);
  for (auto& x : q) x *= q_gain;
  const auto k = random_buffer(static_cast<std::size_t>(s * ld), rng);
  const auto v = random_buffer(static_cast<std::size_t>(s * ld), rng);
  const auto dy = random_buffer(static_cast<std::size_t>(t * ld), rng);
  // Gradients accumulate: start them from nonzero values.
  const AttnGrads grads0{
      random_buffer(static_cast<std::size_t>(t * ld), rng),
      random_buffer(static_cast<std::size_t>(s * ld), rng),
      random_buffer(static_cast<std::size_t>(s * ld), rng)};
  const auto kernel = [&](const float* qh, const float* kh, const float* vh,
                          float* oh, float* ph) {
    return kernels::attention_rows(qh, kh, vh, oh, t, s, 8, ld, scale, ph);
  };
  const auto composed = [&](const float* qh, const float* kh, const float* vh,
                            float* oh, float* ph) {
    kernels::gemm_bt(qh, kh, ph, t, 8, s, nullptr, false, {ld, ld, s});
    kernels::softmax_rows(ph, t, s, scale);
    kernels::gemm(ph, vh, oh, t, s, 8, nullptr, false, {s, ld, ld});
    return kernels::ProbsLayout::kRowMajor;
  };
  const auto spelled = [&](const float* qh, const float* kh, const float* vh,
                           float* oh, float* ph) {
    spelled_attention(qh, kh, vh, oh, ph, t, s, ld, scale);
    return kernels::ProbsLayout::kRowMajor;
  };
  // Every head's gradients from row-major P, one head at a time.
  const auto grads_of = [&](const std::vector<float>& probs, auto head) {
    AttnGrads g = grads0;
    for (std::int64_t h = 0; h < heads; ++h) {
      head(q.data() + h * 8, k.data() + h * 8, v.data() + h * 8,
           dy.data() + h * 8, probs.data() + h * t * s, g.dq.data() + h * 8,
           g.dk.data() + h * 8, g.dv.data() + h * 8);
    }
    return g;
  };
  const auto composed_grad = [&](const float* qh, const float* kh,
                                 const float* vh, const float* gh,
                                 const float* ph, float* dqh, float* dkh,
                                 float* dvh) {
    std::vector<float> dz(static_cast<std::size_t>(t * s), -5.0f);
    kernels::gemm_at(ph, gh, dvh, s, t, 8, nullptr, true, {s, ld, ld});
    kernels::gemm_bt(gh, vh, dz.data(), t, 8, s, nullptr, false,
                     {ld, ld, s});
    kernels::softmax_jacobian_rows(dz.data(), ph, t, s, scale);
    kernels::gemm(dz.data(), kh, dqh, t, s, 8, nullptr, true, {s, ld, ld});
    kernels::gemm_at(dz.data(), qh, dkh, s, t, 8, nullptr, true, {s, ld, ld});
  };
  const auto spelled_grad = [&](const float* qh, const float* kh,
                                const float* vh, const float* gh,
                                const float* ph, float* dqh, float* dkh,
                                float* dvh) {
    spelled_attention_grad(qh, kh, vh, gh, ph, dqh, dkh, dvh, t, s, ld,
                           scale);
  };
  const kernels::Isa startup = kernels::active_isa();
  for (const kernels::Isa isa : kernels::compiled_isas()) {
    if (!kernels::isa_supported(isa)) continue;
    kernels::set_isa(isa);
    ProbsBlocks kept(heads, t, s);
    const AttnOutputs train =
        run_heads(q, k, v, heads, t, s, true, kernel, &kept);
    const AttnOutputs infer = run_heads(q, k, v, heads, t, s, false, kernel);
    const AttnOutputs comp = run_heads(q, k, v, heads, t, s, true, composed);
    const std::string where = std::string(kernels::isa_name(isa)) + " h" +
                              std::to_string(heads) + " t" +
                              std::to_string(t) + " s" + std::to_string(s);
    // The kernel's backward, from the P its forward kept as it kept it.
    AttnGrads grads = grads0;
    std::vector<float> scratch(
        static_cast<std::size_t>(kernels::attention_grad_scratch_floats(t, s)),
        -9.0f);
    for (std::int64_t h = 0; h < heads; ++h) {
      kernels::attention_rows_grad(
          q.data() + h * 8, k.data() + h * 8, v.data() + h * 8,
          dy.data() + h * 8, kept.head(h), train.layout,
          grads.dq.data() + h * 8, grads.dk.data() + h * 8,
          grads.dv.data() + h * 8, t, s, 8, ld, scale, scratch.data());
    }
    const AttnGrads comp_grads = grads_of(train.probs, composed_grad);

    bool against_composition = true;
    bool grads_against_composition = true;
    if (runs_key_major_body(isa)) {
      ASSERT_EQ(train.layout, kernels::ProbsLayout::kKeyMajor) << where;
      const AttnOutputs ref = run_heads(q, k, v, heads, t, s, true, spelled);
      ASSERT_EQ(train.out, ref.out) << where << " output vs spelled";
      ASSERT_EQ(train.probs, ref.probs) << where << " P vs spelled";
      ASSERT_EQ(infer.out, ref.out) << where << " inference vs spelled";
      if (t % 4 == 0) {
        const AttnGrads ref_grads = grads_of(train.probs, spelled_grad);
        ASSERT_EQ(grads.dq, ref_grads.dq) << where << " dQ vs spelled";
        ASSERT_EQ(grads.dk, ref_grads.dk) << where << " dK vs spelled";
        ASSERT_EQ(grads.dv, ref_grads.dv) << where << " dV vs spelled";
#if !defined(FMNET_RELEASE_CONTRACTION)
        grads_against_composition = false;
#endif
      }
#if !defined(FMNET_RELEASE_CONTRACTION)
      against_composition = false;
#endif
    } else {
      ASSERT_EQ(train.layout, kernels::ProbsLayout::kRowMajor) << where;
    }
    if (against_composition) {
      ASSERT_EQ(train.out, comp.out) << where << " output vs composition";
      ASSERT_EQ(train.probs, comp.probs) << where << " P vs composition";
      ASSERT_EQ(infer.out, comp.out) << where << " inference vs composition";
    }
    if (grads_against_composition) {
      ASSERT_EQ(grads.dq, comp_grads.dq) << where << " dQ vs composition";
      ASSERT_EQ(grads.dk, comp_grads.dk) << where << " dK vs composition";
      ASSERT_EQ(grads.dv, comp_grads.dv) << where << " dV vs composition";
    }
  }
  kernels::set_isa(startup);
}

// (heads, T, S): the Table-1 window, the serving window, T and S tails
// mod 16 (36 % 16 == 4: one leftover key quad; T = 37 backward copies P
// out row-major), and S = 4 (a single quad, T one full 16-row block).
TEST(AttentionKernel, MatchesCompositionInInferenceAndTraining) {
  fmnet::Rng rng(123);
  check_attention_kernel(2, 300, 300, 1.0f, rng);
  check_attention_kernel(1, 100, 100, 1.0f, rng);
  check_attention_kernel(2, 37, 36, 1.0f, rng);
  check_attention_kernel(1, 16, 4, 1.0f, rng);
}

// Queries scaled so far apart that scale * (x - max) falls below
// fast_expf's -87 clamp on most keys: the clamped lanes must round like
// the composition's too.
TEST(AttentionKernel, MatchesCompositionWhereExpClamps) {
  fmnet::Rng rng(124);
  check_attention_kernel(1, 100, 100, 30.0f, rng);
  check_attention_kernel(2, 37, 36, 30.0f, rng);
}

// ---- buffer pool -----------------------------------------------------------

TEST(BufferPool, RecyclesLargeBuffers) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  pool::clear();
  const auto before = pool::stats();

  const std::size_t n = pool::kMinPooledFloats * 4;
  {
    std::vector<float> buf = pool::acquire(n);
    ASSERT_EQ(buf.size(), n);
    pool::release(std::move(buf));
  }
  std::vector<float> again = pool::acquire(n);
  EXPECT_EQ(again.size(), n);
  const auto after = pool::stats();
  EXPECT_GE(after.releases, before.releases + 1);
  EXPECT_GE(after.hits, before.hits + 1);
  pool::release(std::move(again));
}

// A release files a buffer under its capacity's class, which for a size
// that is not a power of two lies below the class the old lookup probed
// first; the model's [300, 16] activations (4800 floats) then missed every
// time. The next acquire of a released size must get that buffer back.
TEST(BufferPool, ReusesNonPowerOfTwoSizes) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  pool::clear();
  const std::size_t n = 4800;
  std::vector<float> buf = pool::acquire(n);
  const float* storage = buf.data();
  pool::release(std::move(buf));
  auto before = pool::stats();
  std::vector<float> again = pool::acquire(n);
  auto after = pool::stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(again.size(), n);

  // A smaller buffer of the same class never serves a larger request.
  std::vector<float> small = pool::acquire(n - 300);
  pool::clear();
  pool::release(std::move(small));
  before = pool::stats();
  std::vector<float> larger = pool::acquire(n);
  after = pool::stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_GE(larger.capacity(), n);
  // ...while a larger one of the same class serves a smaller request.
  pool::release(std::move(larger));
  before = pool::stats();
  std::vector<float> fits = pool::acquire(n - 300);
  after = pool::stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  pool::release(std::move(again));
  pool::release(std::move(fits));
}

TEST(BufferPool, TinyBuffersBypass) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  const auto before = pool::stats();
  std::vector<float> buf = pool::acquire(pool::kMinPooledFloats / 2);
  const auto after = pool::stats();
  EXPECT_EQ(after.bypasses, before.bypasses + 1);
  EXPECT_EQ(after.hits, before.hits);
}

TEST(BufferPool, AcquireZeroReturnsZeros) {
  // Recycled buffers carry stale contents; acquire_zero must scrub them.
  const std::size_t n = pool::kMinPooledFloats * 2;
  std::vector<float> dirty = pool::acquire(n);
  std::fill(dirty.begin(), dirty.end(), 7.0f);
  pool::release(std::move(dirty));
  const std::vector<float> z = pool::acquire_zero(n);
  for (const float v : z) ASSERT_EQ(v, 0.0f);
}

// Buffers released on every lane of a pool sit in those lanes' shards;
// one clear() must empty them all, so the next acquire allocates.
TEST(BufferPool, ClearEmptiesEveryLane) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  pool::clear();
  util::ThreadPool lanes(4);
  lanes.parallel_for(0, 64, [](std::int64_t) {
    std::vector<float> a = pool::acquire(pool::kMinPooledFloats * 3);
    std::vector<float> b = pool::acquire(pool::kMinPooledFloats * 3);
    pool::release(std::move(a));
    pool::release(std::move(b));
  });
  EXPECT_GT(pool::stats().cached_buffers, 0);
  pool::clear();
  const auto before = pool::stats();
  EXPECT_EQ(before.cached_buffers, 0);
  EXPECT_EQ(before.cached_bytes, 0);
  const std::vector<float> again = pool::acquire(pool::kMinPooledFloats * 3);
  EXPECT_EQ(pool::stats().misses, before.misses + 1);
}

// The per-class cap is a total over every lane's shard.
TEST(BufferPool, RetentionWithinCaps) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  pool::clear();
  util::ThreadPool lanes(4);
  lanes.parallel_for_lane(0, 4, [](std::size_t, std::int64_t) {
    for (int i = 0; i < 128; ++i) {
      pool::release(std::vector<float>(pool::kMinPooledFloats));
    }
  });
  EXPECT_EQ(pool::stats().cached_buffers, 128);
  pool::clear();
}

// A buffer another thread released serves this thread's acquire before
// anything is allocated.
TEST(BufferPool, AcquireStealsFromOtherLanes) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  pool::clear();
  const std::size_t n = pool::kMinPooledFloats * 5;
  const float* storage = nullptr;
  std::thread other([&] {
    std::vector<float> buf = pool::acquire(n);
    storage = buf.data();
    pool::release(std::move(buf));
  });
  other.join();
  const auto before = pool::stats();
  const std::vector<float> got = pool::acquire(n);
  const auto after = pool::stats();
  EXPECT_EQ(got.data(), storage);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

// Lanes acquire, steal and release buffers of a few sizes at once. Odd
// tasks give back their buffers plus fresh ones and even tasks keep
// theirs, so shards fill on some lanes and drain on others. Every buffer
// is written and read back whole (TSan watches the hand-offs), every
// acquire is a hit or a miss, and the totals stay within the caps.
TEST(BufferPool, ConcurrentAcquireStealRelease) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  pool::clear();
  const auto before = pool::stats();
  constexpr std::int64_t kTasks = 512;
  constexpr int kPerTask = 4;
  std::atomic<int> bad{0};
  util::ThreadPool lanes(4);
  lanes.parallel_for(0, kTasks, [&](std::int64_t i) {
    const std::size_t n =
        pool::kMinPooledFloats * static_cast<std::size_t>(1 + i % 3) +
        static_cast<std::size_t>(i % 7);
    std::vector<std::vector<float>> held;
    for (int j = 0; j < kPerTask; ++j) {
      held.push_back(pool::acquire(n));
      std::fill(held.back().begin(), held.back().end(),
                static_cast<float>(i));
    }
    for (const auto& buf : held) {
      if (buf.size() != n ||
          std::any_of(buf.begin(), buf.end(), [&](float x) {
            return x != static_cast<float>(i);
          })) {
        ++bad;
      }
    }
    if (i % 2 == 1) {
      for (auto& buf : held) pool::release(std::move(buf));
      for (int j = 0; j < kPerTask; ++j) {
        pool::release(std::vector<float>(n));
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
  const auto after = pool::stats();
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            kTasks * kPerTask);
  EXPECT_LE(after.steals - before.steals, after.hits - before.hits);
  // Two capacity classes (1024..1030 and 2048..3078 floats), 128 each.
  EXPECT_LE(after.cached_buffers, 2 * 128);
  pool::clear();
  EXPECT_EQ(pool::stats().cached_buffers, 0);
}

TEST(BufferPool, GraphReusesBuffersAcrossSteps) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  // After a warm-up forward+backward has populated the pool, later
  // identically-shaped steps should be served mostly from recycled
  // buffers.
  fmnet::Rng rng(116);
  const Tensor w = rand_input({64, 64}, rng);
  auto step = [&]() {
    const Tensor x = Tensor::randn({32, 64}, rng);
    Tensor loss = sum(square(matmul(x, w)));
    loss.backward();
    return loss.item();
  };
  step();  // warm-up populates the pool as its graph dies
  const auto warm = pool::stats();
  step();
  const auto after = pool::stats();
  EXPECT_GT(after.hits, warm.hits);
}

}  // namespace
}  // namespace fmnet::tensor
