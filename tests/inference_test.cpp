// Inference-path parity: the no-autograd forward (tensor::InferenceGuard)
// against the graph-building training forward, the forward of an online
// window's kept steps against the tail of the whole-window forward, and
// batched serving against the per-window loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "impute/registry.h"
#include "nn/kal.h"
#include "nn/transformer.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

namespace fmnet {
namespace {

namespace kernels = tensor::kernels;

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

std::shared_ptr<impute::ModelImputer> make_imputer() {
  // Untrained is fine: the constructor seeds the weights deterministically
  // and every path under test sees the same ones.
  impute::MethodParams params;
  params.train.epochs = 0;
  return impute::Registry::build("transformer", params).trainable;
}

nn::ImputationTransformer& transformer_of(impute::ModelImputer& imputer) {
  return static_cast<nn::ImputationTransformer&>(imputer.model());
}

// ---- no-autograd forward parity -------------------------------------------

TEST(InferenceMode, ForwardMatchesTrainingForwardBitForBit) {
  auto imputer = make_imputer();
  auto& model = transformer_of(*imputer);
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
  (void)imputer->impute(ex);  // warm the pool with this shape's buffers
  const auto before = tensor::pool::stats();
  (void)imputer->impute(ex);
  const auto after = tensor::pool::stats();
  EXPECT_GT(after.hits, before.hits)
      << "second inference call allocated fresh activations instead of "
         "recycling pooled ones";
}

TEST(InferenceMode, InferenceResultsCarryNoGraph) {
  auto imputer = make_imputer();
  auto& model = transformer_of(*imputer);
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

// ---- forwarding only the kept steps ----------------------------------------

/// forward(x, rng, output_from) against the last T - output_from columns of
/// forward(x, rng) for a 3-window batch of random features, in inference
/// and in graph-building eval mode, on every ISA this host executes.
void check_kept_steps(const nn::TransformerConfig& config, std::int64_t t,
                      const std::vector<std::int64_t>& output_froms) {
  fmnet::Rng init(5);
  nn::ImputationTransformer model(config, init);
  model.set_training(false);
  constexpr std::int64_t kBatch = 3;
  fmnet::Rng data(6);
  const tensor::Tensor x =
      tensor::Tensor::randn({kBatch, t, config.input_channels}, data);
  fmnet::Rng eval_rng(0);
  const kernels::Isa startup = kernels::active_isa();
  for (const kernels::Isa isa : kernels::compiled_isas()) {
    if (!kernels::isa_supported(isa)) continue;
    kernels::set_isa(isa);
    const std::vector<float> whole = model.forward(x, eval_rng).data();
    for (const std::int64_t from : output_froms) {
      const std::int64_t kept = t - from;
      std::vector<float> tail;
      for (std::int64_t b = 0; b < kBatch; ++b) {
        tail.insert(tail.end(), whole.begin() + b * t + from,
                    whole.begin() + (b + 1) * t);
      }
      const std::string where = std::string(kernels::isa_name(isa)) + " T" +
                                std::to_string(t) + " from " +
                                std::to_string(from);
      const tensor::Tensor graph = model.forward(x, eval_rng, from);
      EXPECT_EQ(graph.shape(), (tensor::Shape{kBatch, kept})) << where;
      EXPECT_EQ(graph.data(), tail) << where << " (graph)";
      const tensor::InferenceGuard guard;
      EXPECT_EQ(model.forward(x, eval_rng, from).data(), tail)
          << where << " (inference)";
    }
  }
  kernels::set_isa(startup);
}

// The serving model (d 8, one head, one layer) at the serving window, with
// the newest interval and the last step alone kept, and the Table-1 model
// at its window: 50, 1 and 50 query rows, none a multiple of the 16-row
// key-major attention tile.
TEST(KeptSteps, ForwardEqualsTailOfWholeWindowOnEveryIsa) {
  nn::TransformerConfig serving;
  serving.d_model = 8;
  serving.num_heads = 1;
  serving.num_layers = 1;
  serving.d_ff = 16;
  check_kept_steps(serving, 100, {50, 99});
  nn::TransformerConfig table1;  // d 16, 2 heads of 8, 2 layers
  check_kept_steps(table1, 300, {250});
}

// ---- batched serving vs the per-window loop -------------------------------

TEST(BatchedInference, MatchesPerWindowLoopExactly) {
  auto imputer = make_imputer();
  std::vector<telemetry::ImputationExample> windows;
  for (std::uint64_t i = 0; i < 16; ++i) {
    windows.push_back(make_example(100 + i));
  }
  std::vector<std::vector<double>> loop_out;
  for (const auto& ex : windows) loop_out.push_back(imputer->impute(ex));

  for (const std::size_t b : {std::size_t{1}, std::size_t{4},
                              std::size_t{16}}) {
    for (std::size_t begin = 0; begin < windows.size(); begin += b) {
      const std::vector<telemetry::ImputationExample> chunk(
          windows.begin() + static_cast<std::ptrdiff_t>(begin),
          windows.begin() + static_cast<std::ptrdiff_t>(begin + b));
      const auto batched = imputer->impute_batch(chunk);
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
  const auto batched = imputer->impute_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(batched[i], imputer->impute(windows[i])) << "window " << i;
  }
}

}  // namespace
}  // namespace fmnet
