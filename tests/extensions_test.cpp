// Tests for the extension modules: GRU cells/encoder, the architecture
// baselines, the physics-informed rate imputer, and streaming imputation
// through the serving core.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "impute/knowledge_imputer.h"
#include "impute/linear_interp.h"
#include "impute/registry.h"
#include "impute/window_buffer.h"
#include "nn/gru.h"
#include "nn/losses.h"
#include "nn/optim.h"
#include "serve/serve.h"
#include "telemetry/dataset.h"
#include "telemetry/monitors.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fmnet {
namespace {

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// GRU
// ---------------------------------------------------------------------------

TEST(Gru, CellShapeAndRange) {
  Rng rng(1);
  nn::GruCell cell(3, 5, rng);
  Rng data_rng(2);
  const Tensor x = Tensor::randn({2, 3}, data_rng);
  const Tensor h = Tensor::zeros({2, 5});
  const Tensor h2 = cell.forward(x, h);
  EXPECT_EQ(h2.shape(), (Shape{2, 5}));
  // GRU state is a convex combination of h (=0) and tanh candidate, so it
  // stays strictly inside (-1, 1).
  for (const float v : h2.data()) {
    EXPECT_GT(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(Gru, ZeroUpdateGateKeepsState) {
  // With z ~ 0 (forced by huge negative bias), h' ~ h.
  Rng rng(3);
  nn::GruCell cell(2, 3, rng);
  // Bias of the update gate is parameter index 1 of xz_ (weight, bias) —
  // set both xz and hz bias very negative via the parameter list: the
  // first four tensors are xz.{W,b}, hz.{W,b}.
  auto params = cell.parameters();
  for (float& b : params[1].data()) b = -50.0f;
  for (float& w : params[0].data()) w = 0.0f;
  for (float& w : params[2].data()) w = 0.0f;
  Rng data_rng(4);
  const Tensor x = Tensor::randn({1, 2}, data_rng);
  const Tensor h = Tensor::from_vector({0.3f, -0.2f, 0.5f}, {1, 3});
  const Tensor h2 = cell.forward(x, h);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(h2.data()[i], h.data()[i], 1e-4);
  }
}

TEST(Gru, GradientsReachAllParameters) {
  Rng rng(5);
  nn::GruCell cell(2, 4, rng);
  Rng data_rng(6);
  const Tensor x = Tensor::randn({3, 2}, data_rng);
  const Tensor h = Tensor::randn({3, 4}, data_rng);
  Tensor loss = tensor::sum(tensor::square(cell.forward(x, h)));
  loss.backward();
  for (const Tensor& p : cell.parameters()) {
    double g2 = 0.0;
    for (const float g : p.grad()) g2 += static_cast<double>(g) * g;
    EXPECT_GT(g2, 0.0);
  }
}

TEST(Gru, BiGruNetShapeAndTrainability) {
  Rng rng(7);
  nn::BiGruImputerNet net(4, 6, rng);
  Rng data_rng(8);
  const Tensor x = Tensor::randn({2, 10, 4}, data_rng);
  const Tensor y = net.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));

  // One gradient step reduces a quadratic loss on a fixed target.
  const Tensor target = Tensor::zeros({2, 10});
  nn::Adam opt(net.parameters(), 0.05f);
  float first = 0.0f;
  float last = 0.0f;
  for (int i = 0; i < 30; ++i) {
    net.zero_grad();
    Tensor loss = nn::mse_loss(net.forward(x), target);
    if (i == 0) first = loss.item();
    last = loss.item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(Gru, BidirectionalSeesFutureContext) {
  // A pointwise or forward-only model cannot make step 0's output depend
  // on step T-1's input; the BiGRU must.
  Rng rng(9);
  nn::BiGruImputerNet net(2, 4, rng);
  Tensor a = Tensor::zeros({1, 6, 2});
  Tensor b = Tensor::zeros({1, 6, 2});
  b.data()[5 * 2] = 5.0f;  // change only the last step's features
  const float ya = net.forward(a).data()[0];
  const float yb = net.forward(b).data()[0];
  EXPECT_GT(std::fabs(ya - yb), 1e-6f);
}

// ---------------------------------------------------------------------------
// Architecture baselines on a real campaign.
// ---------------------------------------------------------------------------

telemetry::DatasetSplit small_split(std::uint64_t seed) {
  const auto campaign = fmnet::testing::run_small_campaign(seed, 800);
  const auto gt = telemetry::trim_to_multiple(campaign.gt, 100);
  const auto ct = telemetry::sample_telemetry(gt, 50);
  telemetry::DatasetConfig cfg;
  cfg.window_ms = 100;
  cfg.factor = 50;
  cfg.qlen_scale = 200.0;
  cfg.count_scale = 500.0;
  return telemetry::split_examples(
      telemetry::build_examples(gt, ct, cfg, 2));
}

/// Registry method `method` with a tiny transformer (the rate family's
/// network) and `epochs` of training; inference on `pool` (null = global
/// pool).
std::shared_ptr<impute::Imputer> tiny_learned(
    const std::string& method, int epochs, util::ThreadPool* pool = nullptr) {
  impute::MethodParams params;
  params.model.input_channels = telemetry::kNumInputChannels;
  params.model.d_model = 8;
  params.model.num_heads = 2;
  params.model.num_layers = 1;
  params.model.d_ff = 16;
  params.model.max_seq_len = 128;
  params.train.epochs = epochs;
  params.pool = pool;
  return impute::Registry::create(method, params);
}

TEST(AltModels, BiGruTrainsAndImputes) {
  const auto split = small_split(41);
  const auto imp = tiny_learned("gru", 3);
  imp->fit(split.train);
  const auto out = imp->impute(split.test.front());
  ASSERT_EQ(out.size(), split.test.front().window);
  for (const double v : out) ASSERT_GE(v, 0.0);
}

TEST(AltModels, PointwiseMlpTrainsAndImputes) {
  const auto split = small_split(43);
  const auto imp = tiny_learned("mlp", 5);
  imp->fit(split.train);
  const auto out = imp->impute(split.test.front());
  ASSERT_EQ(out.size(), split.test.front().window);
  for (const double v : out) ASSERT_GE(v, 0.0);
}

TEST(AltModels, PointwiseOutputConstantWithinInterval) {
  // The MLP sees identical features at every step of an interval, so its
  // output must be constant within each interval — the structural reason
  // temporal models are needed.
  const auto split = small_split(47);
  const auto imp = tiny_learned("mlp", 2);
  imp->fit(split.train);
  const auto& ex = split.test.front();
  const auto out = imp->impute(ex);
  const auto factor = static_cast<std::size_t>(ex.constraints.coarse_factor);
  for (std::size_t w = 0; w * factor < out.size(); ++w) {
    for (std::size_t k = 1; k < factor; ++k) {
      ASSERT_NEAR(out[w * factor + k], out[w * factor], 1e-4);
    }
  }
}

// ---------------------------------------------------------------------------
// Physics-informed rate imputer.
// ---------------------------------------------------------------------------

TEST(RateImputer, OutputsObeyPhysicsByConstruction) {
  const auto split = small_split(53);
  // The test windows in one lane-parallel batch of two inference shards
  // (16 windows of 100 steps each). q[0] of each output must be its own
  // window's first sample; the campaign's windows all start from the same
  // queue, so the first samples are made distinct here and a row/q0
  // mismatch inside or across shards shows.
  std::vector<telemetry::ImputationExample> windows = split.test;
  ASSERT_GT(windows.size(), 16u);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    windows[i].constraints.sample_val.front() =
        0.01f * static_cast<float>(i + 1);
  }
  util::ThreadPool pool(8);
  const auto imp = tiny_learned("rate", 3, &pool);
  imp->fit(split.train);
  const auto outs = imp->impute_batch(windows);
  ASSERT_EQ(outs.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto& ex = windows[i];
    const auto& out = outs[i];
    ASSERT_EQ(out.size(), ex.window);
    // Non-negative everywhere, q[0] anchored at the first sample, and the
    // per-step slope bounded by the physical rate limit.
    EXPECT_NEAR(out[0],
                static_cast<double>(ex.constraints.sample_val.front()) *
                    ex.qlen_scale,
                1e-3);
    const double max_delta = 0.5 * ex.qlen_scale + 1e-6;
    for (std::size_t t = 0; t < out.size(); ++t) {
      ASSERT_GE(out[t], 0.0);
      if (t > 0) {
        ASSERT_LE(std::abs(out[t] - out[t - 1]), max_delta);
      }
    }
  }
}

TEST(RateImputer, TrainingReducesEmd) {
  const auto split = small_split(59);
  const auto imp = tiny_learned("rate", 6);
  // Compare EMD to ground truth before/after training on the train set.
  auto emd_to_truth = [&](impute::Imputer& m) {
    double acc = 0.0;
    for (const auto& ex : split.train) {
      const auto out = m.impute(ex);
      std::vector<float> pred(out.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        pred[i] = static_cast<float>(out[i] / ex.qlen_scale);
      }
      const Tensor p = Tensor::from_vector(
          std::move(pred), {static_cast<std::int64_t>(out.size())});
      const Tensor y = Tensor::from_vector(
          ex.target, {static_cast<std::int64_t>(ex.target.size())});
      acc += nn::emd_loss(p, y).item();
    }
    return acc;
  };
  const double before = emd_to_truth(*imp);
  imp->fit(split.train);
  const double after = emd_to_truth(*imp);
  EXPECT_LT(after, before);
}

TEST(RateImputer, ComposesWithCem) {
  const auto split = small_split(61);
  const auto base = tiny_learned("rate", 3);
  base->fit(split.train);
  impute::KnowledgeAugmentedImputer full(base);
  const auto& ex = split.test.front();
  auto out = full.impute(ex);
  for (auto& v : out) v /= ex.qlen_scale;
  EXPECT_TRUE(fmnet::testing::checked(out, ex.constraints).satisfied(1e-5));
}

// ---------------------------------------------------------------------------
// Streaming imputation: the online path is serve::ServeCore over per-session
// impute::WindowBuffers.
// ---------------------------------------------------------------------------

/// A one-tick-per-interval server under a virtual clock.
std::unique_ptr<serve::ServeCore> streaming_core(
    std::shared_ptr<impute::Imputer> model, std::size_t window_intervals,
    std::size_t factor, double qlen_scale, double count_scale, bool repair,
    const util::Clock* clock) {
  serve::ServeConfig cfg;
  cfg.sessions = 1;
  cfg.repair = repair;
  return std::make_unique<serve::ServeCore>(
      cfg, std::move(model), window_intervals, factor, qlen_scale,
      count_scale, impute::CemConfig{}, clock);
}

TEST(Streaming, NotReadyUntilWindowFull) {
  util::VirtualClock clock;
  const auto core = streaming_core(
      std::make_shared<impute::LinearInterpImputer>(), 4, 50, 200.0, 500.0,
      /*repair=*/false, &clock);
  std::vector<serve::PublishedWindow> out;
  for (int i = 0; i < 3; ++i) {
    core->tick({{1.0, 2.0, 10.0, 0.0}}, out);
    EXPECT_TRUE(out.empty());
  }
  core->tick({{1.0, 2.0, 10.0, 0.0}}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, serve::WindowKind::kRaw);
  EXPECT_EQ(out[0].fine.size(), 50u);
  EXPECT_GE(out[0].latency_seconds, 0.0);
  EXPECT_EQ(core->session(0).window.intervals_seen(), 4u);
}

TEST(Streaming, SlidingWindowTracksNewestInterval) {
  util::VirtualClock clock;
  const auto core = streaming_core(
      std::make_shared<impute::LinearInterpImputer>(), 2, 10, 100.0, 100.0,
      /*repair=*/false, &clock);
  std::vector<serve::PublishedWindow> out;
  core->tick({{0.0, 0.0, 5.0, 0.0}}, out);
  // Newest interval has max 8: its imputed slice must reach 8 somewhere
  // (LinearInterp places the max at the midpoint).
  core->tick({{2.0, 8.0, 5.0, 0.0}}, out);
  ASSERT_EQ(out.size(), 1u);
  double mx = 0.0;
  for (const double v : out[0].fine) mx = std::max(mx, v);
  EXPECT_NEAR(mx, 8.0, 1e-5);  // float32 round trip through the example
}

TEST(Streaming, CemGuaranteesHoldOnline) {
  // Every repaired publication — the async CEM window repair of the
  // session's newest interval — attains the LANZ max as an upper bound
  // and pins the periodic sample exactly.
  util::VirtualClock clock;
  const auto core = streaming_core(
      std::make_shared<impute::LinearInterpImputer>(), 3, 20, 100.0, 200.0,
      /*repair=*/true, &clock);
  Rng rng(71);
  std::vector<impute::CoarseIntervalUpdate> sent;  // by tick
  std::vector<serve::PublishedWindow> out;
  for (int i = 0; i < 20; ++i) {
    const double mx = static_cast<double>(rng.uniform_int(0, 40));
    const double sample = static_cast<double>(
        rng.uniform_int(0, static_cast<std::int64_t>(mx)));
    sent.push_back({sample, mx, 20.0, 0.0});
    core->tick({sent.back()}, out);
  }
  core->drain(out);
  std::size_t repaired = 0;
  for (const auto& p : out) {
    if (p.kind != serve::WindowKind::kRepaired) continue;
    ++repaired;
    const auto& u = sent.at(static_cast<std::size_t>(p.tick));
    double got_max = 0.0;
    for (const double v : p.fine) {
      ASSERT_GE(v, 0.0);
      got_max = std::max(got_max, v);
    }
    // Newest interval's max equals the LANZ report, exactly (CEM).
    EXPECT_NEAR(got_max, u.max_qlen, 1e-5) << "tick " << p.tick;
    // And the sampled first step matches the periodic sample.
    EXPECT_NEAR(p.fine.front(), u.periodic_qlen, 1e-5) << "tick " << p.tick;
  }
  EXPECT_EQ(repaired, 18u);  // every tick from the third on
}

TEST(Streaming, RejectsBadConfig) {
  auto base = std::make_shared<impute::LinearInterpImputer>();
  EXPECT_THROW(streaming_core(nullptr, 3, 50, 100.0, 100.0, false, nullptr),
               CheckError);
  EXPECT_THROW(streaming_core(base, 0, 50, 100.0, 100.0, false, nullptr),
               CheckError);
  EXPECT_THROW(impute::WindowBuffer(3, 0, 100.0, 100.0), CheckError);
}

}  // namespace
}  // namespace fmnet
