// Integration tests for the end-to-end pipeline: campaign simulation, data
// preparation, and Table-1 evaluation — including the headline ordering
// property (CEM nullifies consistency errors; the full system beats the
// naive baseline).
#include <gtest/gtest.h>

#include <sstream>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "impute/knowledge_imputer.h"
#include "impute/linear_interp.h"
#include "impute/registry.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fmnet::core {
namespace {

CampaignConfig small_campaign_config(std::uint64_t seed) {
  CampaignConfig cfg;
  cfg.num_ports = 4;
  cfg.buffer_size = 200;
  cfg.slots_per_ms = 10;  // keep tests fast; benches use 90
  cfg.total_ms = 1200;
  cfg.seed = seed;
  return cfg;
}

TEST(Pipeline, CampaignProducesCorrectDimensions) {
  const Campaign c = run_campaign(small_campaign_config(1));
  EXPECT_EQ(c.gt.queue_len.size(), 8u);  // 4 ports x 2 queues
  EXPECT_EQ(c.gt.port_sent.size(), 4u);
  EXPECT_EQ(c.gt.num_ms(), 1200u);
  EXPECT_EQ(c.switch_config.slots_per_ms, 10);
}

TEST(Pipeline, CampaignIsDeterministicPerSeed) {
  const Campaign a = run_campaign(small_campaign_config(7));
  const Campaign b = run_campaign(small_campaign_config(7));
  EXPECT_EQ(a.gt.queue_len[3].values(), b.gt.queue_len[3].values());
  const Campaign c = run_campaign(small_campaign_config(8));
  EXPECT_NE(a.gt.port_received[0].values(), c.gt.port_received[0].values());
}

TEST(Pipeline, CampaignHasCongestionSignal) {
  // The workload must actually create queueing (otherwise every method is
  // trivially perfect and the evaluation is vacuous).
  const Campaign c = run_campaign(small_campaign_config(2));
  double max_q = 0.0;
  for (const auto& q : c.gt.queue_len) max_q = std::max(max_q, q.max());
  EXPECT_GT(max_q, 10.0);
}

TEST(Pipeline, PrepareDataShapesAndScales) {
  const Campaign c = run_campaign(small_campaign_config(3));
  const PreparedData data = prepare_data(c, 300, 50);
  EXPECT_EQ(data.dataset_config.qlen_scale, 200.0);
  EXPECT_EQ(data.dataset_config.count_scale, 10.0 * 50.0);
  EXPECT_FALSE(data.split.train.empty());
  EXPECT_FALSE(data.split.test.empty());
  EXPECT_EQ(data.coarse.factor, 50u);
  for (const auto& ex : data.split.train) {
    ASSERT_EQ(ex.window, 300u);
    ASSERT_EQ(ex.constraints.window_max.size(), 6u);
  }
}

TEST(Evaluation, PerfectImputerScoresZeroEverywhere) {
  // An oracle that returns the ground truth must have ~zero error on every
  // row — this validates the whole metric pipeline.
  class Oracle : public impute::Imputer {
   public:
    explicit Oracle(const Campaign& c) : c_(c) {}
    std::string name() const override { return "Oracle"; }
    std::vector<double> impute(
        const telemetry::ImputationExample& ex) override {
      std::vector<double> out(ex.window);
      for (std::size_t t = 0; t < ex.window; ++t) {
        out[t] = c_.gt.queue_len[ex.queue][ex.start_ms + t];
      }
      return out;
    }

   private:
    const Campaign& c_;
  };

  const Campaign c = run_campaign(small_campaign_config(4));
  const PreparedData data = prepare_data(c, 300, 50);
  Table1Evaluator eval(c, data);
  Oracle oracle(c);
  const Table1Row row = eval.evaluate(oracle);
  // The constraint record is float32; normalising the oracle's exact
  // packets through it leaves ~1e-7-relative rounding residue.
  EXPECT_NEAR(row.max_constraint, 0.0, 1e-6);
  EXPECT_NEAR(row.periodic_constraint, 0.0, 1e-6);
  EXPECT_NEAR(row.sent_constraint, 0.0, 1e-6);
  EXPECT_NEAR(row.burst_detection, 0.0, 1e-9);
  EXPECT_NEAR(row.burst_height, 0.0, 1e-9);
  EXPECT_NEAR(row.burst_frequency, 0.0, 1e-9);
  EXPECT_NEAR(row.burst_interarrival, 0.0, 1e-9);
  EXPECT_NEAR(row.empty_queue_freq, 0.0, 1e-9);
  EXPECT_NEAR(row.concurrent_bursts, 0.0, 1e-9);
}

TEST(Evaluation, CemNullifiesConsistencyRows) {
  // The paper's headline property: rows a-c are exactly 0 for any method
  // wrapped with CEM (Table 1, last column). Needs a campaign long enough
  // that the test windows contain real congestion for the naive baseline
  // to violate.
  CampaignConfig busy = small_campaign_config(7);
  busy.total_ms = 3'000;
  const Campaign c = run_campaign(busy);
  const PreparedData data = prepare_data(c, 300, 50);
  Table1Evaluator eval(c, data);

  auto base = std::make_shared<impute::LinearInterpImputer>();
  impute::KnowledgeAugmentedImputer corrected(base);
  const Table1Row row = eval.evaluate(corrected);
  EXPECT_NEAR(row.max_constraint, 0.0, 1e-5);
  EXPECT_NEAR(row.periodic_constraint, 0.0, 1e-5);
  EXPECT_NEAR(row.sent_constraint, 0.0, 1e-5);
  // And the naive baseline alone does violate them.
  impute::LinearInterpImputer naive;
  const Table1Row naive_row = eval.evaluate(naive);
  EXPECT_GT(naive_row.max_constraint + naive_row.periodic_constraint +
                naive_row.sent_constraint,
            0.01);
}

TEST(Evaluation, BatchedEvaluationMatchesPerWindowPath) {
  // evaluate() imputes the test split in one impute_batch call. A decorator
  // overriding only impute() takes Imputer's default per-window loop
  // instead; both paths must give the same rows, bit for bit, for the
  // lane-parallel model and for the CEM wrapper around it.
  class PerWindowOnly : public impute::Imputer {
   public:
    explicit PerWindowOnly(impute::Imputer& inner) : inner_(inner) {}
    std::string name() const override { return inner_.name(); }
    std::vector<double> impute(
        const telemetry::ImputationExample& ex) override {
      return inner_.impute(ex);
    }

   private:
    impute::Imputer& inner_;
  };
  const auto values = [](const Table1Row& r) {
    return std::vector<double>{
        r.max_constraint,     r.periodic_constraint, r.sent_constraint,
        r.burst_detection,    r.burst_height,        r.burst_frequency,
        r.burst_interarrival, r.empty_queue_freq,    r.concurrent_bursts,
        r.c4_backlog};
  };

  CampaignConfig busy = small_campaign_config(5);
  busy.total_ms = 3'000;  // 40 test windows: several inference shards
  const Campaign c = run_campaign(busy);
  const PreparedData data = prepare_data(c, 300, 50);
  Table1Evaluator eval(c, data);
  util::ThreadPool pool(4);
  impute::MethodParams params;
  params.train.epochs = 0;  // the deterministic initial weights are enough
  params.pool = &pool;
  const std::shared_ptr<impute::Imputer> model =
      impute::Registry::create("transformer", params);
  impute::KnowledgeAugmentedImputer corrected(model, impute::CemConfig{},
                                              &pool);
  for (impute::Imputer* imputer :
       {static_cast<impute::Imputer*>(model.get()),
        static_cast<impute::Imputer*>(&corrected)}) {
    PerWindowOnly per_window(*imputer);
    const Table1Row batched = eval.evaluate(*imputer);
    const Table1Row looped = eval.evaluate(per_window);
    EXPECT_EQ(batched.method, looped.method);
    EXPECT_EQ(values(batched), values(looped)) << batched.method;
  }
}

TEST(Evaluation, PrintTable1Layout) {
  std::vector<Table1Row> rows(2);
  // Move-assigned temporaries: GCC 12 -Wrestrict false-positives
  // (PR105651) on assigning string literals into vector elements.
  rows[0].method = std::string("A");
  rows[0].max_constraint = 0.5;
  rows[1].method = std::string("B");
  std::ostringstream os;
  print_table1(rows, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("a. Max Constraint"), std::string::npos);
  EXPECT_NE(s.find("i. Avg count of concurrent bursts"), std::string::npos);
  EXPECT_NE(s.find("0.500"), std::string::npos);
  EXPECT_NE(s.find("A"), std::string::npos);
}

}  // namespace
}  // namespace fmnet::core
