// Inference-path parity: the no-autograd forward (tensor::InferenceGuard)
// against the graph-building training forward, and batched serving against
// the per-window loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "impute/transformer_imputer.h"
#include "nn/kal.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

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

}  // namespace
}  // namespace fmnet
