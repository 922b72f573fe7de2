// Tests for the imputation methods: baselines, CEM (hand cases, ground-
// truth idempotence, fast-vs-SMT cross-check), the transformer pipeline,
// the composite KAL+CEM imputer, and the FM-alone switch model.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "impute/cem.h"
#include "impute/fm_model.h"
#include "impute/iterative_imputer.h"
#include "impute/knowledge_imputer.h"
#include "impute/linear_interp.h"
#include "impute/registry.h"
#include "obs/metrics.h"
#include "smt/solve_cache.h"
#include "telemetry/dataset.h"
#include "telemetry/monitors.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace fmnet::impute {
namespace {

// Builds a small example with explicit constraint data (packets = units,
// qlen_scale 1 for easy reading).
ImputationExample toy_example(std::size_t window, std::int64_t factor) {
  ImputationExample ex;
  ex.window = window;
  ex.qlen_scale = 1.0;
  ex.count_scale = 1.0;
  ex.constraints.coarse_factor = factor;
  ex.features.assign(window * telemetry::kNumInputChannels, 0.0f);
  ex.target.assign(window, 0.0f);
  return ex;
}

TEST(LinearInterp, PassesThroughSamplesAndMidpointMax) {
  auto ex = toy_example(8, 4);
  ex.constraints.sample_idx = {0, 4};
  ex.constraints.sample_val = {2.0f, 0.0f};
  ex.constraints.window_max = {6.0f, 0.0f};
  ex.constraints.port_sent = {4.0f, 4.0f};
  LinearInterpImputer imp;
  const auto out = imp.impute(ex);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);   // sample
  EXPECT_DOUBLE_EQ(out[2], 6.0);   // max at midpoint of interval 0
  EXPECT_DOUBLE_EQ(out[4], 0.0);   // sample
  EXPECT_DOUBLE_EQ(out[6], 0.0);   // max 0 at midpoint of interval 1
  // Linear between anchors: t=1 between (0,2) and (2,6) -> 4.
  EXPECT_DOUBLE_EQ(out[1], 4.0);
  // Never negative.
  for (const double v : out) EXPECT_GE(v, 0.0);
}

TEST(IterativeImputerTest, PreservesObservedPoints) {
  auto ex = toy_example(100, 50);
  ex.constraints.sample_idx = {0, 50};
  ex.constraints.sample_val = {3.0f, 1.0f};
  ex.constraints.window_max = {9.0f, 4.0f};
  ex.constraints.port_sent = {50.0f, 50.0f};
  IterativeImputer imp;
  const auto out = imp.impute(ex);
  ASSERT_EQ(out.size(), 100u);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[50], 1.0);
  EXPECT_DOUBLE_EQ(out[25], 9.0);  // max at interval midpoint
  EXPECT_DOUBLE_EQ(out[75], 4.0);
  for (const double v : out) EXPECT_GE(v, 0.0);
}

TEST(IterativeImputerTest, InterpolationStaysInObservedEnvelope) {
  auto ex = toy_example(100, 50);
  ex.constraints.sample_idx = {0, 50};
  ex.constraints.sample_val = {2.0f, 2.0f};
  ex.constraints.window_max = {2.0f, 2.0f};
  ex.constraints.port_sent = {50.0f, 50.0f};
  IterativeImputer imp;
  const auto out = imp.impute(ex);
  // All observations equal 2: a sane conditional-mean model should stay
  // near 2 everywhere.
  for (const double v : out) EXPECT_NEAR(v, 2.0, 1.0);
}

// ---------------------------------------------------------------------------
// CEM
// ---------------------------------------------------------------------------

/// A record in packet units (qlen_scale 1).
constraints::ExampleConstraints toy_cem(std::int64_t factor) {
  constraints::ExampleConstraints c;
  c.coarse_factor = factor;
  return c;
}

TEST(Cem, AlreadyFeasibleIsUntouched) {
  constraints::ExampleConstraints c = toy_cem(4);
  c.window_max = {3};
  c.port_sent = {4};
  c.sample_idx = {0};
  c.sample_val = {1};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({1, 3, 2, 0}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.objective, 0);
  EXPECT_EQ(r.corrected, (std::vector<double>{1, 3, 2, 0}));
}

TEST(Cem, EnforcesSampleValues) {
  constraints::ExampleConstraints c = toy_cem(4);
  c.window_max = {5};
  c.port_sent = {4};
  c.sample_idx = {0};
  c.sample_val = {5};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({0, 0, 0, 0}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.corrected[0], 5.0);  // C2 enforced
  // Sample already attains the max, so nothing else must change.
  EXPECT_EQ(r.objective, 0);
}

TEST(Cem, LeavesUnderMaxWindowUntouched) {
  constraints::ExampleConstraints c = toy_cem(4);
  c.window_max = {10};
  c.port_sent = {4};
  ConstraintEnforcementModule cem;
  // C1 is an upper bound: a window whose peak (7) stays under the LANZ
  // report (10) is already legal — the true slot-level peak may fall
  // between ms samples — so nothing may change.
  const auto r = cem.correct({1, 4, 7, 2}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.objective, 0);
  EXPECT_EQ(r.corrected, (std::vector<double>{1, 4, 7, 2}));
}

TEST(Cem, ClampsAboveMax) {
  constraints::ExampleConstraints c = toy_cem(4);
  c.window_max = {5};
  c.port_sent = {4};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({9, 2, 8, 1}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  for (const double v : r.corrected) EXPECT_LE(v, 5.0);
  // Objective: |9->5| + |8->5| = 7.
  EXPECT_EQ(r.objective, 7);
}

TEST(Cem, ZeroesDribbleWhenPortSentFewPackets) {
  // SNMP says only 1 packet left the port, but the model imputed a small
  // nonzero value everywhere: C3 forces all but one step to empty.
  constraints::ExampleConstraints c = toy_cem(5);
  c.window_max = {2};
  c.port_sent = {1};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({1, 1, 2, 1, 1}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  std::int64_t nonempty = 0;
  double mx = 0;
  for (const double v : r.corrected) {
    if (v > 0) ++nonempty;
    mx = std::max(mx, v);
  }
  EXPECT_LE(nonempty, 1);
  EXPECT_DOUBLE_EQ(mx, 2.0);  // C1 still attained by the surviving step
}

TEST(Cem, AllZeroWindowWhenMaxIsZero) {
  constraints::ExampleConstraints c = toy_cem(4);
  c.window_max = {0};
  c.port_sent = {4};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({2, 1, 0, 3}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  for (const double v : r.corrected) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(r.objective, 6);
}

TEST(Cem, InfeasibleWhenSampleExceedsMax) {
  constraints::ExampleConstraints c = toy_cem(4);
  c.window_max = {2};
  c.port_sent = {4};
  c.sample_idx = {1};
  c.sample_val = {5};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({0, 5, 0, 0}, c, 1.0);
  EXPECT_FALSE(r.feasible);
}

TEST(Cem, MultipleSamplesWithinOneInterval) {
  // Samples need not sit at interval starts: fix three interior points.
  constraints::ExampleConstraints c = toy_cem(6);
  c.window_max = {7};
  c.port_sent = {6};
  c.sample_idx = {1, 3, 4};
  c.sample_val = {7, 2, 0};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({0, 0, 5, 0, 9, 1}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.corrected[1], 7.0);
  EXPECT_DOUBLE_EQ(r.corrected[3], 2.0);
  EXPECT_DOUBLE_EQ(r.corrected[4], 0.0);
  // The sampled 7 attains the max, so nothing else must rise; clamping of
  // the 9 at index 4 is forced by the sample, costing nothing extra in the
  // objective (sampled steps are excluded).
  for (const double v : r.corrected) EXPECT_LE(v, 7.0);
}

TEST(Cem, NegativeInputsClampToZero) {
  constraints::ExampleConstraints c = toy_cem(4);
  c.window_max = {3};
  c.port_sent = {4};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({-2.0, 3.0, -0.4, 0.0}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.corrected[0], 0.0);
  EXPECT_DOUBLE_EQ(r.corrected[2], 0.0);
  // The objective is measured against the *rounded* raw input: clamping
  // round(-2) = -2 up to 0 costs 2; round(-0.4) = 0 costs nothing.
  EXPECT_EQ(r.objective, 2);
}

TEST(Cem, MultiWindowIndependence) {
  constraints::ExampleConstraints c = toy_cem(3);
  c.window_max = {4, 0};
  c.port_sent = {3, 3};
  ConstraintEnforcementModule cem;
  const auto r = cem.correct({1, 2, 3, 1, 1, 1}, c, 1.0);
  ASSERT_TRUE(r.feasible);
  // Window 1 forced all-zero; window 0 already under its max of 4 and so
  // untouched.
  for (std::size_t t = 3; t < 6; ++t) EXPECT_DOUBLE_EQ(r.corrected[t], 0.0);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_DOUBLE_EQ(r.corrected[t], static_cast<double>(t + 1));
  }
  EXPECT_EQ(r.objective, 3);
}

TEST(Cem, GroundTruthIsFixedPoint) {
  // Correcting the (integer) ground truth must change nothing: it already
  // satisfies every constraint derived from it.
  const auto campaign = fmnet::testing::run_small_campaign(11, 600);
  const auto gt = telemetry::trim_to_multiple(campaign.gt, 50);
  const auto ct = telemetry::sample_telemetry(gt, 50);
  telemetry::DatasetConfig cfg;
  cfg.window_ms = 100;
  cfg.factor = 50;
  cfg.qlen_scale = 200.0;
  cfg.count_scale = 500.0;
  const auto examples = telemetry::build_examples(
      gt, ct, cfg, campaign.config.queues_per_port);
  ConstraintEnforcementModule cem;
  for (const auto& ex : examples) {
    std::vector<double> truth_pkts(ex.window);
    for (std::size_t t = 0; t < ex.window; ++t) {
      truth_pkts[t] = gt.queue_len[ex.queue][ex.start_ms + t];
    }
    const auto r = cem.correct(truth_pkts, ex.constraints, ex.qlen_scale);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(r.objective, 0);
    ASSERT_EQ(r.corrected, truth_pkts);
  }
}

struct CemRandomCase {
  std::uint64_t seed;
  std::int64_t factor;
};

class CemCrossCheck : public ::testing::TestWithParam<CemRandomCase> {};

TEST_P(CemCrossCheck, FastRepairMatchesSmtOptimum) {
  const auto& param = GetParam();
  fmnet::Rng rng(param.seed);
  const std::int64_t factor = param.factor;

  constraints::ExampleConstraints c = toy_cem(factor);
  const std::int64_t m_max = rng.uniform_int(0, 6);
  c.window_max = {static_cast<float>(m_max)};
  c.port_sent = {static_cast<float>(rng.uniform_int(0, factor))};
  std::vector<double> imputed(static_cast<std::size_t>(factor));
  for (auto& v : imputed) {
    v = static_cast<double>(rng.uniform_int(-1, 8));
  }
  // Random consistent sample: pick a position, value within [0, m_max].
  if (rng.bernoulli(0.7)) {
    c.sample_idx = {rng.uniform_int(0, factor - 1)};
    c.sample_val = {static_cast<float>(rng.uniform_int(0, m_max))};
  }

  ConstraintEnforcementModule fast(
      CemConfig{.engine = CemEngine::kFastRepair});
  ConstraintEnforcementModule smt_engine(
      CemConfig{.engine = CemEngine::kSmtBranchAndBound});
  const auto rf = fast.correct(imputed, c, 1.0);
  const auto rs = smt_engine.correct(imputed, c, 1.0);
  ASSERT_EQ(rf.feasible, rs.feasible) << "seed " << param.seed;
  if (!rf.feasible) return;
  EXPECT_EQ(rf.objective, rs.objective) << "seed " << param.seed;

  // Both solutions must satisfy the constraints exactly.
  for (const auto& r : {rf, rs}) {
    EXPECT_TRUE(fmnet::testing::checked(r.corrected, c).satisfied())
        << "seed " << param.seed;
  }
}

std::vector<CemRandomCase> cem_cases() {
  std::vector<CemRandomCase> out;
  for (std::uint64_t s = 1; s <= 25; ++s) {
    out.push_back({s * 1337, 4 + static_cast<std::int64_t>(s % 5)});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(RandomWindows, CemCrossCheck,
                         ::testing::ValuesIn(cem_cases()),
                         [](const auto& pinfo) {
                           std::string name = "s";
                           name += std::to_string(pinfo.param.seed);
                           return name;
                         });

// ---------------------------------------------------------------------------
// Serving-path accelerators: warm start and repair cache. Both must
// preserve the repaired output bit-for-bit.
// ---------------------------------------------------------------------------

TEST(CemAccel, AcceleratedConfigMatchesColdExactly) {
  smt::SolveCache::global().clear();
  CemConfig cold_cfg;
  cold_cfg.engine = CemEngine::kSmtBranchAndBound;
  cold_cfg.use_repair_cache = false;
  cold_cfg.warm_start = false;
  CemConfig accel_cfg;
  accel_cfg.engine = CemEngine::kSmtBranchAndBound;
  accel_cfg.use_repair_cache = true;
  accel_cfg.warm_start = true;
  const ConstraintEnforcementModule cold(cold_cfg);
  const ConstraintEnforcementModule accel(accel_cfg);

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fmnet::Rng rng(seed * 31);
    const std::int64_t factor = 4 + static_cast<std::int64_t>(seed % 4);
    constraints::ExampleConstraints c;
    c.coarse_factor = factor;
    c.window_max = {static_cast<float>(rng.uniform_int(0, 6)),
                    static_cast<float>(rng.uniform_int(0, 6))};
    c.port_sent = {static_cast<float>(rng.uniform_int(0, factor)),
                   static_cast<float>(rng.uniform_int(0, factor))};
    std::vector<double> imputed;
    for (std::int64_t t = 0; t < 2 * factor; ++t) {
      imputed.push_back(static_cast<double>(rng.uniform_int(-1, 8)));
    }
    if (rng.bernoulli(0.6)) {
      c.sample_idx = {rng.uniform_int(0, factor - 1)};
      c.sample_val = {static_cast<float>(rng.uniform_int(
          0, static_cast<std::int64_t>(c.window_max[0])))};
    }
    const auto rc = cold.correct(imputed, c, 1.0);
    const auto ra = accel.correct(imputed, c, 1.0);
    ASSERT_EQ(rc.feasible, ra.feasible) << "seed " << seed;
    EXPECT_EQ(rc.objective, ra.objective) << "seed " << seed;
    EXPECT_EQ(rc.corrected, ra.corrected) << "seed " << seed;
    // Second accelerated run hits the repair cache; still identical.
    const auto rcached = accel.correct(imputed, c, 1.0);
    EXPECT_EQ(rcached.corrected, ra.corrected) << "seed " << seed;
    EXPECT_EQ(rcached.objective, ra.objective) << "seed " << seed;
  }
  smt::SolveCache::global().clear();
}

TEST(CemBudget, DecisionBudgetMakesRepairsDeterministic) {
  // CEM's SMT budget counts decisions only, so a repair never depends on
  // machine load. A cold window (no warm start, no cache) whose search
  // needs `need` decisions is cut at need / 2: the budget-limited repair is
  // the same on every repeat. With a budget of `need` it is the unlimited
  // repair.
  CemConfig cfg;
  cfg.engine = CemEngine::kSmtBranchAndBound;
  cfg.use_repair_cache = false;
  cfg.warm_start = false;
  EXPECT_FALSE(std::isfinite(cfg.smt_budget.max_seconds));

  const std::int64_t factor = 12;
  fmnet::Rng rng(777);
  std::vector<double> imputed;
  for (std::int64_t t = 0; t < factor; ++t) {
    imputed.push_back(static_cast<double>(rng.uniform_int(-1, 9)));
  }
  PacketInterval interval{.m_max = 6, .m_out = 9, .sample_at = {}};
  interval.sample_at.assign(static_cast<std::size_t>(factor), -1);
  interval.sample_at[5] = 4;

  obs::Counter& decisions = obs::Registry::global().counter("smt.decisions");
  auto repair = [&](std::int64_t max_decisions, std::int64_t* used) {
    CemConfig c = cfg;
    c.smt_budget.max_decisions = max_decisions;
    const std::int64_t before = decisions.value();
    CemResult r = ConstraintEnforcementModule(c).correct_window(imputed,
                                                                interval);
    *used = decisions.value() - before;
    return r;
  };
  std::int64_t need = 0;
  const CemResult unlimited = repair(cfg.smt_budget.max_decisions, &need);
  ASSERT_TRUE(unlimited.feasible);
  ASSERT_GT(need, 40);

  std::int64_t used = 0;
  const CemResult cut = repair(need / 2, &used);
  EXPECT_EQ(used, need / 2 + 1);  // stopped by the budget, not finished
  EXPECT_TRUE(cut.feasible);      // with its best incumbent
  for (int rep = 0; rep < 20; ++rep) {
    const CemResult again = repair(need / 2, &used);
    EXPECT_EQ(again.feasible, cut.feasible) << "repeat " << rep;
    EXPECT_EQ(again.objective, cut.objective) << "repeat " << rep;
    EXPECT_EQ(again.corrected, cut.corrected) << "repeat " << rep;
  }

  const CemResult enough = repair(need, &used);
  EXPECT_EQ(used, need);
  EXPECT_EQ(enough.objective, unlimited.objective);
  EXPECT_EQ(enough.corrected, unlimited.corrected);
}

// ---------------------------------------------------------------------------
// Transformer pipeline
// ---------------------------------------------------------------------------

/// A tiny transformer of `method` ("transformer" or "transformer+kal").
std::shared_ptr<ModelImputer> tiny_transformer(const std::string& method,
                                               const TrainConfig& train) {
  MethodParams params;
  params.model.input_channels = telemetry::kNumInputChannels;
  params.model.d_model = 8;
  params.model.num_heads = 2;
  params.model.num_layers = 1;
  params.model.d_ff = 16;
  params.model.max_seq_len = 128;
  params.train = train;
  return Registry::build(method, params).trainable;
}

TEST(TransformerImputerTest, TrainingReducesLoss) {
  const auto campaign = fmnet::testing::run_small_campaign(12, 800);
  const auto gt = telemetry::trim_to_multiple(campaign.gt, 50);
  const auto ct = telemetry::sample_telemetry(gt, 50);
  telemetry::DatasetConfig dcfg;
  dcfg.window_ms = 100;
  dcfg.factor = 50;
  dcfg.qlen_scale = 200.0;
  dcfg.count_scale = 500.0;
  auto examples = telemetry::build_examples(
      gt, ct, dcfg, campaign.config.queues_per_port);

  TrainConfig tcfg;
  tcfg.epochs = 8;
  tcfg.seed = 7;
  const auto imp = tiny_transformer("transformer", tcfg);
  const auto epoch_loss = imp->train(examples);
  ASSERT_EQ(epoch_loss.size(), 8u);
  EXPECT_LT(epoch_loss.back(), epoch_loss.front());

  const auto out = imp->impute(examples.front());
  ASSERT_EQ(out.size(), examples.front().window);
  for (const double v : out) ASSERT_GE(v, 0.0);
}

TEST(TransformerImputerTest, KalReducesConstraintViolations) {
  const auto campaign = fmnet::testing::run_small_campaign(13, 800);
  const auto gt = telemetry::trim_to_multiple(campaign.gt, 50);
  const auto ct = telemetry::sample_telemetry(gt, 50);
  telemetry::DatasetConfig dcfg;
  dcfg.window_ms = 100;
  dcfg.factor = 50;
  dcfg.qlen_scale = 200.0;
  dcfg.count_scale = 500.0;
  auto examples = telemetry::build_examples(
      gt, ct, dcfg, campaign.config.queues_per_port);

  auto violation_sum = [&](Imputer& imp) {
    double acc = 0.0;
    for (const auto& ex : examples) {
      auto out = imp.impute(ex);
      for (auto& v : out) v /= ex.qlen_scale;  // normalised units
      const auto viol = fmnet::testing::checked(out, ex.constraints);
      acc += viol.c1.violation + viol.c2.violation;
    }
    return acc;
  };

  TrainConfig plain;
  plain.epochs = 10;
  plain.seed = 21;
  const auto base = tiny_transformer("transformer", plain);
  base->train(examples);

  const auto with_kal = tiny_transformer("transformer+kal", plain);
  with_kal->train(examples);

  // KAL must reduce (not necessarily nullify) C1+C2 violation on the
  // training distribution.
  EXPECT_LT(violation_sum(*with_kal), violation_sum(*base));
}

TEST(KnowledgeImputerTest, OutputSatisfiesConstraintsExactly) {
  const auto campaign = fmnet::testing::run_small_campaign(14, 600);
  const auto gt = telemetry::trim_to_multiple(campaign.gt, 50);
  const auto ct = telemetry::sample_telemetry(gt, 50);
  telemetry::DatasetConfig dcfg;
  dcfg.window_ms = 100;
  dcfg.factor = 50;
  dcfg.qlen_scale = 200.0;
  dcfg.count_scale = 500.0;
  auto examples = telemetry::build_examples(
      gt, ct, dcfg, campaign.config.queues_per_port);

  TrainConfig tcfg;
  tcfg.epochs = 3;
  tcfg.seed = 5;
  const auto base = tiny_transformer("transformer", tcfg);
  base->train(examples);
  KnowledgeAugmentedImputer full(base);

  for (const auto& ex : examples) {
    auto out = full.impute(ex);
    for (auto& v : out) v /= ex.qlen_scale;
    const auto viol = fmnet::testing::checked(out, ex.constraints);
    // CEM output is exact in integer packets; the float32 constraint
    // record introduces ~1e-7-relative noise after normalisation.
    ASSERT_NEAR(viol.c1.violation, 0.0, 1e-5);
    ASSERT_NEAR(viol.c2.violation, 0.0, 1e-5);
    ASSERT_NEAR(viol.c3.violation, 0.0, 1e-5);
  }
  EXPECT_EQ(full.infeasible_windows(), 0);
  EXPECT_GT(full.cem_calls(), 0);
}

TEST(KnowledgeImputerTest, RejectsOnlineExamplesNamingOutputFrom) {
  // CEM repairs whole windows. An online example asks for its newest
  // interval alone, and the server repairs that interval through its own
  // lane, so a +cem imputer refuses it rather than repairing a window it
  // was handed only the tail of.
  auto ex = toy_example(8, 4);
  ex.constraints.sample_idx = {0, 4};
  ex.constraints.sample_val = {2.0f, 0.0f};
  ex.constraints.window_max = {6.0f, 0.0f};
  ex.constraints.port_sent = {4.0f, 4.0f};
  ex.output_from = 4;
  const auto with_cem = Registry::create("linear+cem", {});
  const auto message_of = [](const auto& call) {
    try {
      call();
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no CheckError");
  };
  EXPECT_NE(message_of([&] { (void)with_cem->impute(ex); })
                .find("output_from 4"),
            std::string::npos);
  EXPECT_NE(message_of([&] { (void)with_cem->impute_batch({ex}); })
                .find("output_from 4"),
            std::string::npos);
  ex.output_from = 0;
  EXPECT_EQ(with_cem->impute(ex).size(), 8u);
}

// ---------------------------------------------------------------------------
// FM-alone switch model
// ---------------------------------------------------------------------------

FmSwitchModelConfig tiny_fm_config() {
  FmSwitchModelConfig cfg;
  cfg.num_queues = 2;
  cfg.buffer_size = 8;
  cfg.max_ingress_per_slot = 2;
  cfg.slots_per_interval = 4;
  return cfg;
}

TEST(FmModel, RoundTripOnHandTrace) {
  const FmSwitchModelConfig cfg = tiny_fm_config();
  FmSwitchModel model(cfg);
  // 8 slots: a burst to queue 0, a trickle to queue 1.
  const std::vector<std::vector<std::int64_t>> arrivals{
      {2, 2, 0, 0, 0, 0, 0, 0},
      {0, 0, 1, 0, 0, 1, 0, 0},
  };
  std::vector<std::vector<std::int64_t>> truth_len;
  const FmMeasurements m = model.measure(arrivals, &truth_len);

  smt::Budget budget;
  budget.max_seconds = 30.0;
  const FmImputationResult r = model.impute(m, budget);
  ASSERT_EQ(r.status, smt::Status::kSat);
  ASSERT_EQ(r.queue_len.size(), 2u);
  ASSERT_EQ(r.queue_len[0].size(), 8u);

  // The imputed scenario must reproduce the measurements: per-interval max
  // and interval-start samples per queue.
  for (std::int32_t q = 0; q < 2; ++q) {
    for (std::size_t k = 0; k < m.num_intervals(); ++k) {
      std::int64_t mx = 0;
      for (std::size_t t = k * 4; t < (k + 1) * 4; ++t) {
        mx = std::max(mx, r.queue_len[q][t]);
      }
      EXPECT_EQ(mx, m.queue_max[q][k]) << "q" << q << " k" << k;
      if (k > 0) {
        EXPECT_EQ(r.queue_len[q][k * 4 - 1], m.queue_sample[q][k]);
      }
    }
  }
}

TEST(FmModel, GroundTruthItselfIsASolution) {
  // Sanity: the measured trace's own queue evolution satisfies the model,
  // so the solver must find *something* (not necessarily the same trace).
  const FmSwitchModelConfig cfg = tiny_fm_config();
  FmSwitchModel model(cfg);
  fmnet::Rng rng(99);
  std::vector<std::vector<std::int64_t>> arrivals(
      2, std::vector<std::int64_t>(8));
  for (auto& qa : arrivals) {
    for (auto& a : qa) a = rng.uniform_int(0, 2);
  }
  const FmMeasurements m = model.measure(arrivals);
  smt::Budget budget;
  budget.max_seconds = 30.0;
  EXPECT_EQ(model.impute(m, budget).status, smt::Status::kSat);
}

TEST(FmModel, InconsistentMeasurementsUnsat) {
  const FmSwitchModelConfig cfg = tiny_fm_config();
  FmSwitchModel model(cfg);
  FmMeasurements m;
  m.received = {0};
  m.sent = {10};  // cannot send 10 packets in 4 slots with nothing queued
  m.dropped = {0};
  m.queue_max = {{0}, {0}};
  m.queue_sample = {{0}, {0}};
  smt::Budget budget;
  budget.max_seconds = 30.0;
  EXPECT_EQ(model.impute(m, budget).status, smt::Status::kUnsat);
}

TEST(FmModel, BudgetExhaustionReturnsUnknown) {
  FmSwitchModelConfig cfg = tiny_fm_config();
  cfg.slots_per_interval = 16;
  FmSwitchModel model(cfg);
  fmnet::Rng rng(123);
  std::vector<std::vector<std::int64_t>> arrivals(
      2, std::vector<std::int64_t>(64));
  for (auto& qa : arrivals) {
    for (auto& a : qa) a = rng.uniform_int(0, 2);
  }
  const FmMeasurements m = model.measure(arrivals);
  smt::Budget tiny;
  tiny.max_decisions = 3;
  const auto r = model.impute(m, tiny);
  EXPECT_EQ(r.status, smt::Status::kUnknown);
}

}  // namespace
}  // namespace fmnet::impute
