// Bit-for-bit reproducibility of every parallelised pipeline stage: the
// same config must produce identical output whether it runs on 1 lane or
// 8. This is the contract documented in util/thread_pool.h — work is
// decomposed independently of the thread count, results land in per-index
// slots, reductions happen in index order, and per-task randomness comes
// from derived per-index streams.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/engine.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "core/scenario.h"
#include "impute/cem.h"
#include "impute/transformer_imputer.h"
#include "obs/metrics.h"
#include "telemetry/dataset.h"
#include "telemetry/monitors.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fmnet {
namespace {

core::CampaignConfig small_campaign_config() {
  core::CampaignConfig cfg;
  cfg.num_ports = 2;
  cfg.buffer_size = 200;
  cfg.slots_per_ms = 10;
  cfg.total_ms = 400;
  cfg.seed = 5;
  cfg.shard_ms = 100;
  return cfg;
}

TEST(Determinism, CampaignIdenticalAcrossThreadCounts) {
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  const auto a = core::run_campaign(small_campaign_config(), &one);
  const auto b = core::run_campaign(small_campaign_config(), &eight);
  EXPECT_EQ(a.gt.queue_len, b.gt.queue_len);
  EXPECT_EQ(a.gt.queue_len_max, b.gt.queue_len_max);
  EXPECT_EQ(a.gt.port_sent, b.gt.port_sent);
  EXPECT_EQ(a.gt.port_dropped, b.gt.port_dropped);
  EXPECT_EQ(a.gt.port_received, b.gt.port_received);
}

TEST(Determinism, CampaignShardRemainderHandled) {
  // total_ms not a multiple of shard_ms: the last shard takes the
  // remainder and the concatenated length is exact.
  auto cfg = small_campaign_config();
  cfg.total_ms = 250;
  util::ThreadPool eight(8);
  const auto r = core::run_campaign(cfg, &eight);
  EXPECT_EQ(r.gt.num_ms(), 250u);
}

/// A record in packet units (qlen_scale 1).
constraints::ExampleConstraints multi_window_constraints(
    std::int64_t windows, std::int64_t factor) {
  constraints::ExampleConstraints c;
  c.coarse_factor = factor;
  for (std::int64_t w = 0; w < windows; ++w) {
    c.window_max.push_back(12.0f);
    c.port_sent.push_back(static_cast<float>(factor / 2));
    c.sample_idx.push_back(w * factor);
    c.sample_val.push_back(3.0f);
  }
  return c;
}

TEST(Determinism, CemCorrectionIdenticalAcrossThreadCounts) {
  const std::int64_t windows = 12;
  const std::int64_t factor = 10;
  const auto c = multi_window_constraints(windows, factor);
  Rng rng(17);
  std::vector<double> imputed(static_cast<std::size_t>(windows * factor));
  for (auto& v : imputed) v = rng.uniform(0.0, 20.0);

  for (const auto engine : {impute::CemEngine::kFastRepair,
                            impute::CemEngine::kSmtBranchAndBound}) {
    impute::CemConfig cfg;
    cfg.engine = engine;
    impute::ConstraintEnforcementModule cem(cfg);
    util::ThreadPool one(1);
    util::ThreadPool eight(8);
    const auto a = cem.correct(imputed, c, 1.0, &one);
    const auto b = cem.correct(imputed, c, 1.0, &eight);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.corrected, b.corrected);
  }
}

TEST(Determinism, MetricsCollectionDoesNotPerturbOutputs) {
  // The observability layer (obs/) must be a pure observer: running the
  // instrumented stages with collection ON must produce bit-identical
  // outputs to collection OFF, at any lane count.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  const auto baseline = core::run_campaign(small_campaign_config(), &one);

  obs::set_enabled(true);
  const auto on_one = core::run_campaign(small_campaign_config(), &one);
  const auto on_eight = core::run_campaign(small_campaign_config(), &eight);

  const auto c = multi_window_constraints(12, 10);
  Rng rng(17);
  std::vector<double> imputed(120);
  for (auto& v : imputed) v = rng.uniform(0.0, 20.0);
  impute::ConstraintEnforcementModule cem;
  obs::set_enabled(false);
  const auto cem_off = cem.correct(imputed, c, 1.0, &eight);
  obs::set_enabled(true);
  const auto cem_on = cem.correct(imputed, c, 1.0, &eight);
  obs::set_enabled(was_enabled);

  EXPECT_EQ(baseline.gt.queue_len, on_one.gt.queue_len);
  EXPECT_EQ(baseline.gt.queue_len, on_eight.gt.queue_len);
  EXPECT_EQ(baseline.gt.port_sent, on_eight.gt.port_sent);
  EXPECT_EQ(baseline.gt.port_dropped, on_eight.gt.port_dropped);
  EXPECT_EQ(cem_off.objective, cem_on.objective);
  EXPECT_EQ(cem_off.corrected, cem_on.corrected);
}

TEST(Determinism, GemmRowShardingIdenticalAcrossThreadCounts) {
  // The blocked GEMM shards output row blocks across lanes; every element
  // is computed start-to-finish by one lane in a partition-independent
  // k-order, so the result must be bit-identical at any lane count — with
  // the buffer pool active (its recycled packing buffers carry stale
  // contents that must never leak into results).
  Rng rng(31);
  const std::int64_t m = 192;
  const std::int64_t k = 128;
  const std::int64_t n = 96;
  ASSERT_GE(2 * m * k * n, tensor::kernels::kParallelFlops);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));

  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  for (int round = 0; round < 3; ++round) {  // re-runs hit recycled buffers
    std::vector<float> c1(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> c8 = c1;
    tensor::kernels::gemm(a.data(), b.data(), c1.data(), m, k, n, &one);
    tensor::kernels::gemm(a.data(), b.data(), c8.data(), m, k, n, &eight);
    EXPECT_EQ(c1, c8) << "round " << round;
  }
}

TEST(Determinism, PooledTensorOpsMatchUnpooled) {
  // Buffer recycling must be invisible: the same graph computed with the
  // pool on and off yields bit-identical outputs and gradients.
  auto run = [] {
    Rng rng(37);
    tensor::Tensor x = tensor::Tensor::randn({16, 80}, rng, 1.0f, true);
    tensor::Tensor w = tensor::Tensor::randn({80, 48}, rng, 0.1f, true);
    tensor::Tensor b = tensor::Tensor::zeros({48}, true);
    // Two steps so the second runs against a warm pool.
    std::vector<float> out;
    for (int step = 0; step < 2; ++step) {
      tensor::Tensor h = tensor::linear_act(x, w, b, tensor::Act::kGelu);
      tensor::Tensor s = tensor::softmax(h, 1);
      tensor::Tensor loss = tensor::sum(tensor::square(s));
      loss.backward();
      out.push_back(loss.item());
    }
    const auto& g = x.grad();
    out.insert(out.end(), g.begin(), g.end());
    return out;
  };
  const bool was = tensor::pool::enabled();
  tensor::pool::set_enabled(true);
  const auto pooled = run();
  tensor::pool::set_enabled(false);
  const auto unpooled = run();
  tensor::pool::set_enabled(was);
  EXPECT_EQ(pooled, unpooled);
}

TEST(Determinism, TrainingIdenticalAcrossThreadCounts) {
  // Full training run — shuffling, dropout, KAL multiplier updates,
  // gradient reduction, Adam — must yield bit-identical weights whether
  // the micro-shards of each batch run on 1 lane or 8.
  auto ccfg = small_campaign_config();
  const auto campaign = core::run_campaign(ccfg);
  const auto gt = telemetry::trim_to_multiple(campaign.gt, 50);
  const auto ct = telemetry::sample_telemetry(gt, 50);
  telemetry::DatasetConfig dcfg;
  dcfg.window_ms = 100;
  dcfg.factor = 50;
  dcfg.qlen_scale = 200.0;
  dcfg.count_scale = 500.0;
  const auto examples = telemetry::build_examples(
      gt, ct, dcfg, campaign.switch_config.queues_per_port);
  ASSERT_GT(examples.size(), 8u);

  nn::TransformerConfig mcfg;
  mcfg.input_channels = telemetry::kNumInputChannels;
  mcfg.d_model = 8;
  mcfg.num_heads = 2;
  mcfg.num_layers = 1;
  mcfg.d_ff = 16;
  mcfg.max_seq_len = 128;
  mcfg.dropout = 0.1f;  // exercise the per-shard dropout streams
  impute::TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.seed = 7;
  tcfg.use_kal = true;

  impute::TransformerImputer imp_one(mcfg, tcfg);
  impute::TransformerImputer imp_eight(mcfg, tcfg);
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  const auto stats_one = imp_one.train(examples, &one);
  const auto stats_eight = imp_eight.train(examples, &eight);

  EXPECT_EQ(stats_one.epoch_loss, stats_eight.epoch_loss);
  EXPECT_EQ(stats_one.final_mean_phi, stats_eight.final_mean_phi);
  EXPECT_EQ(stats_one.final_mean_psi, stats_eight.final_mean_psi);
  const auto pa = imp_one.model().parameters();
  const auto pb = imp_eight.model().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    EXPECT_EQ(pa[p].data(), pb[p].data()) << "parameter " << p;
  }
  // Inference through the trained weights (pooled tensor path) must agree
  // bit-for-bit too, not just the stored parameters.
  EXPECT_EQ(imp_one.impute(examples[0]), imp_eight.impute(examples[0]));
}

TEST(Determinism, EngineRunIdenticalAcrossThreadCounts) {
  // The whole engine DAG — simulate, prepare, train, impute, correct,
  // evaluate — must produce the same Table-1 rows on 1 lane and on 8.
  core::Scenario s;
  s.campaign = small_campaign_config();
  s.window_ms = 100;
  s.factor = 50;
  s.model.d_model = 8;
  s.model.num_heads = 2;
  s.model.num_layers = 1;
  s.model.d_ff = 16;
  s.model.max_seq_len = 128;
  s.train.epochs = 1;
  s.train.batch_size = 4;
  s.train.seed = 7;
  s.methods = {"linear", "transformer+kal", "transformer+kal+cem"};

  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  core::Engine engine_one{core::ArtifactStore(), &one};
  core::Engine engine_eight{core::ArtifactStore(), &eight};
  const auto rows_one = engine_one.run(s);
  const auto rows_eight = engine_eight.run(s);

  auto table = [](const std::vector<core::Table1Row>& rows) {
    std::ostringstream os;
    core::print_table1(rows, os);
    return os.str();
  };
  EXPECT_EQ(table(rows_one), table(rows_eight));
  ASSERT_EQ(rows_one.size(), rows_eight.size());
  for (std::size_t i = 0; i < rows_one.size(); ++i) {
    EXPECT_EQ(rows_one[i].max_constraint, rows_eight[i].max_constraint);
    EXPECT_EQ(rows_one[i].sent_constraint, rows_eight[i].sent_constraint);
    EXPECT_EQ(rows_one[i].burst_detection, rows_eight[i].burst_detection);
    EXPECT_EQ(rows_one[i].concurrent_bursts,
              rows_eight[i].concurrent_bursts);
  }
}

}  // namespace
}  // namespace fmnet
