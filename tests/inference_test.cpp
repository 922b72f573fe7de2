// Inference-path parity: the no-autograd forward (tensor::InferenceGuard)
// against the graph-building training forward, batched serving against the
// per-window loop, and the int8 quantised path against its contracts —
// exact int32 semantics at the kernel level, a pinned EMD accuracy bound
// at the model level, and clean restoration of bit-identical fp32 serving
// when quantisation is switched back off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "impute/transformer_imputer.h"
#include "nn/kal.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fmnet {
namespace {

// T = 90 on purpose: 90 % 4 == 2, so stacked windows start at different
// panel-quad phases — the layout that exposed row-position-dependent FMA
// contraction in an earlier skinny-kernel draft (see kernels_skinny.inc).
constexpr std::size_t kWindow = 90;

telemetry::ImputationExample make_example(std::uint64_t seed,
                                          std::size_t window = kWindow) {
  fmnet::Rng rng(seed);
  telemetry::ImputationExample ex;
  ex.window = window;
  ex.qlen_scale = 1.0;
  ex.count_scale = 1.0;
  ex.features.resize(window * telemetry::kNumInputChannels);
  for (auto& f : ex.features) {
    f = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  ex.target.assign(window, 0.0f);
  return ex;
}

impute::TransformerImputer make_imputer() {
  // Untrained is fine: the constructor seeds the weights deterministically
  // and every path under test sees the same ones.
  nn::TransformerConfig model;
  impute::TrainConfig train;
  train.epochs = 0;
  return impute::TransformerImputer(model, train);
}

double mean_emd_delta(const std::vector<std::vector<double>>& a,
                      const std::vector<std::vector<double>>& b) {
  double total = 0.0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    double cdf = 0.0;
    double acc = 0.0;
    for (std::size_t t = 0; t < a[w].size(); ++t) {
      cdf += a[w][t] - b[w][t];
      acc += std::fabs(cdf);
    }
    total += acc / static_cast<double>(a[w].size());
  }
  return total / static_cast<double>(a.size());
}

// ---- no-autograd forward parity -------------------------------------------

TEST(InferenceMode, ForwardMatchesTrainingForwardBitForBit) {
  auto imputer = make_imputer();
  auto& model = imputer.model();
  model.set_training(false);

  const auto ex = make_example(11);
  const tensor::Tensor x = tensor::Tensor::from_vector(
      ex.features,
      {1, static_cast<std::int64_t>(kWindow),
       static_cast<std::int64_t>(telemetry::kNumInputChannels)});
  fmnet::Rng eval_rng(0);

  // Graph-building eval forward (the training codepath with dropout off).
  const std::vector<float> graph_out = model.forward(x, eval_rng).data();

  {
    const tensor::InferenceGuard guard;
    EXPECT_EQ(model.forward(x, eval_rng).data(), graph_out);
  }

  // The pool is an allocation cache, never an arithmetic input: disabling
  // it must not change a single bit.
  tensor::pool::set_enabled(false);
  {
    const tensor::InferenceGuard guard;
    EXPECT_EQ(model.forward(x, eval_rng).data(), graph_out);
  }
  tensor::pool::set_enabled(true);
}

TEST(InferenceMode, ReusesPooledActivationsAcrossCalls) {
  auto imputer = make_imputer();
  const auto ex = make_example(12);
  (void)imputer.impute(ex);  // warm the pool with this shape's buffers
  const auto before = tensor::pool::stats();
  (void)imputer.impute(ex);
  const auto after = tensor::pool::stats();
  EXPECT_GT(after.hits, before.hits)
      << "second inference call allocated fresh activations instead of "
         "recycling pooled ones";
}

TEST(InferenceMode, InferenceResultsCarryNoGraph) {
  auto imputer = make_imputer();
  auto& model = imputer.model();
  model.set_training(false);
  const auto ex = make_example(13);
  const tensor::Tensor x = tensor::Tensor::from_vector(
      ex.features,
      {1, static_cast<std::int64_t>(kWindow),
       static_cast<std::int64_t>(telemetry::kNumInputChannels)});
  fmnet::Rng eval_rng(0);
  const tensor::InferenceGuard guard;
  const tensor::Tensor pred = model.forward(x, eval_rng);
  EXPECT_FALSE(pred.requires_grad());
}

TEST(InferenceMode, KalPenaltyRefusesInferenceScope) {
  // The KAL terms exist to be differentiated; building them on a
  // graph-free value node would silently return zero gradients.
  const tensor::Tensor pred =
      tensor::Tensor::from_vector({0.5f, 0.25f, 0.0f}, {1, 3});
  constraints::ExampleConstraints c;
  c.window_max.assign(1, 1.0f);
  c.coarse_factor = 3;
  const tensor::InferenceGuard guard;
  EXPECT_THROW(nn::kal_penalty(pred, c, /*lambda_eq=*/0.0f,
                               /*lambda_ineq=*/0.0f, /*mu=*/0.5f),
               CheckError);
}

// ---- batched serving vs the per-window loop -------------------------------

TEST(BatchedInference, MatchesPerWindowLoopExactly) {
  auto imputer = make_imputer();
  std::vector<telemetry::ImputationExample> windows;
  for (std::uint64_t i = 0; i < 16; ++i) {
    windows.push_back(make_example(100 + i));
  }
  std::vector<std::vector<double>> loop_out;
  for (const auto& ex : windows) loop_out.push_back(imputer.impute(ex));

  for (const std::size_t b : {std::size_t{1}, std::size_t{4},
                              std::size_t{16}}) {
    for (std::size_t begin = 0; begin < windows.size(); begin += b) {
      const std::vector<telemetry::ImputationExample> chunk(
          windows.begin() + static_cast<std::ptrdiff_t>(begin),
          windows.begin() + static_cast<std::ptrdiff_t>(begin + b));
      const auto batched = imputer.impute_batch(chunk);
      ASSERT_EQ(batched.size(), b);
      for (std::size_t i = 0; i < b; ++i) {
        EXPECT_EQ(batched[i], loop_out[begin + i])
            << "B=" << b << " window " << begin + i;
      }
    }
  }
}

TEST(BatchedInference, MixedWindowLengthsFallBackToLoop) {
  auto imputer = make_imputer();
  std::vector<telemetry::ImputationExample> windows = {
      make_example(20, 60), make_example(21, 90), make_example(22, 60)};
  const auto batched = imputer.impute_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(batched[i], imputer.impute(windows[i])) << "window " << i;
  }
}

// ---- int8 quantisation contracts ------------------------------------------

TEST(QuantizedLinear, WeightRoundTripWithinHalfScale) {
  fmnet::Rng rng(31);
  const std::int64_t in = 24;
  const std::int64_t out = 16;
  std::vector<float> w(static_cast<std::size_t>(in * out));
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, 1.0));
  // An all-zero output channel must keep dequantisation well-defined.
  for (std::int64_t p = 0; p < in; ++p) {
    w[static_cast<std::size_t>(p * out + 3)] = 0.0f;
  }

  const auto qw = tensor::quant::quantize_linear_weights(w.data(), in, out);
  ASSERT_EQ(qw.in, in);
  ASSERT_EQ(qw.out, out);
  EXPECT_EQ(qw.scale[3], 1.0f);
  for (std::int64_t j = 0; j < out; ++j) {
    const float scale = qw.scale[static_cast<std::size_t>(j)];
    for (std::int64_t p = 0; p < in; ++p) {
      const auto idx = static_cast<std::size_t>(p * out + j);
      EXPECT_GE(qw.wq[idx], -127);
      EXPECT_LE(qw.wq[idx], 127);
      EXPECT_LE(std::fabs(w[idx] - static_cast<float>(qw.wq[idx]) * scale),
                scale * 0.5f + 1e-6f)
          << "channel " << j << " row " << p;
    }
  }
}

TEST(QuantizedLinear, ForwardMatchesInt32Reference) {
  // The fast kernel runs its MAC as fp32 FMAs over the quantised values;
  // for k <= kernels::kQuantExactMacK that is EXACTLY the int32 result
  // (products <= 127^2 and sums < 2^24 are all representable). Only the
  // final dequant `acc * scale + bias` may contract into an FMA in the
  // kernel and not in this reference, so the comparison allows a couple
  // of ulps there — independent of k, which is what distinguishes an
  // exact integer MAC from a genuinely rounded float accumulation. Both
  // a templated width (16) and the variable fallback (7) are covered.
  fmnet::Rng rng(32);
  for (const std::int64_t n : {std::int64_t{16}, std::int64_t{7}}) {
    const std::int64_t rows = 5;
    const std::int64_t k = 64;
    ASSERT_LE(k, tensor::kernels::kQuantExactMacK);
    std::vector<float> w(static_cast<std::size_t>(k * n));
    std::vector<float> x(static_cast<std::size_t>(rows * k));
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (auto& v : w) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : bias) v = static_cast<float>(rng.normal(0.0, 1.0));
    const auto qw =
        tensor::quant::quantize_linear_weights(w.data(), k, n);

    std::vector<float> fast(static_cast<std::size_t>(rows * n));
    tensor::quant::quantized_linear_forward(x.data(), rows, qw, bias.data(),
                                            fast.data(),
                                            tensor::Act::kNone);

    for (std::int64_t i = 0; i < rows; ++i) {
      const float* xrow = x.data() + i * k;
      float amax = 0.0f;
      for (std::int64_t q = 0; q < k; ++q) {
        amax = std::max(amax, std::fabs(xrow[q]));
      }
      const float xscale = amax > 0.0f ? amax / 127.0f : 1.0f;
      const float inv = 1.0f / xscale;
      std::vector<std::int32_t> xq(static_cast<std::size_t>(k));
      for (std::int64_t q = 0; q < k; ++q) {
        const float r = std::nearbyintf(xrow[q] * inv);
        xq[static_cast<std::size_t>(q)] = static_cast<std::int32_t>(
            std::max(-127.0f, std::min(127.0f, r)));
      }
      for (std::int64_t j = 0; j < n; ++j) {
        std::int32_t acc = 0;
        for (std::int64_t q = 0; q < k; ++q) {
          acc += xq[static_cast<std::size_t>(q)] *
                 static_cast<std::int32_t>(
                     qw.wq[static_cast<std::size_t>(q * n + j)]);
        }
        const float expect =
            static_cast<float>(acc) *
                (xscale * qw.scale[static_cast<std::size_t>(j)]) +
            bias[static_cast<std::size_t>(j)];
        const float tol =
            std::max(std::fabs(expect) * 3e-7f, 1e-6f);  // ~2 ulps
        EXPECT_NEAR(fast[static_cast<std::size_t>(i * n + j)], expect, tol)
            << "n=" << n << " row " << i << " col " << j;
      }
    }
  }
}

TEST(QuantizedInference, EmdDeltaWithinPinnedBound) {
  // THE pinned accuracy bound for the int8 serving path. CI additionally
  // gates the value exported by bench/batched_inference with the same
  // constant; loosening either is an accuracy regression to be justified,
  // not absorbed.
  constexpr double kMaxEmdDelta = 0.35;

  auto imputer = make_imputer();
  std::vector<telemetry::ImputationExample> windows;
  for (std::uint64_t i = 0; i < 8; ++i) {
    windows.push_back(make_example(200 + i));
  }
  const auto fp32_out = imputer.impute_batch(windows);

  imputer.set_infer_config({/*quantize_int8=*/true});
  const auto int8_out = imputer.impute_batch(windows);
  const double delta = mean_emd_delta(int8_out, fp32_out);
  EXPECT_GT(delta, 0.0) << "int8 path produced bit-identical output — is "
                           "quantisation actually on?";
  EXPECT_LT(delta, kMaxEmdDelta);

  // Switching back off must restore bit-identical fp32 serving: the
  // trained weights were never touched, only shadowed.
  imputer.set_infer_config({/*quantize_int8=*/false});
  EXPECT_EQ(imputer.impute_batch(windows), fp32_out);
}

TEST(QuantizedInference, BatchedInt8MatchesPerWindowInt8) {
  // Bit-equality across batch shapes holds for the int8 path too: the
  // quant kernel's per-row pass never reads the row count.
  auto imputer = make_imputer();
  imputer.set_infer_config({/*quantize_int8=*/true});
  std::vector<telemetry::ImputationExample> windows;
  for (std::uint64_t i = 0; i < 8; ++i) {
    windows.push_back(make_example(300 + i));
  }
  std::vector<std::vector<double>> loop_out;
  for (const auto& ex : windows) loop_out.push_back(imputer.impute(ex));
  const auto batched = imputer.impute_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(batched[i], loop_out[i]) << "window " << i;
  }
}

TEST(QuantizedInference, ParallelBatchMatchesLoopAcrossLanes) {
  // The int8 path through the lane-parallel sharded forward: 40 windows of
  // T = 90 make three shards on 8 lanes, against the 1-lane per-window
  // loop of an identically initialised imputer.
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  nn::TransformerConfig model;
  impute::TrainConfig train;
  train.epochs = 0;
  impute::TransformerImputer serial(model, train, {/*quantize_int8=*/true},
                                    &one);
  impute::TransformerImputer parallel(model, train, {/*quantize_int8=*/true},
                                      &eight);
  std::vector<telemetry::ImputationExample> windows;
  for (std::uint64_t i = 0; i < 40; ++i) {
    windows.push_back(make_example(400 + i));
  }
  const auto batched = parallel.impute_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(batched[i], serial.impute(windows[i])) << "window " << i;
  }
}

}  // namespace
}  // namespace fmnet
