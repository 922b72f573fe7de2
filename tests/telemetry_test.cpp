// Tests for monitoring-tool semantics and dataset assembly, including the
// keystone property: ground truth always satisfies constraints C1–C3 under
// our monitor definitions — which is what makes CEM's constraint system
// feasible.
#include <gtest/gtest.h>

#include "impute/window_buffer.h"
#include "telemetry/dataset.h"
#include "telemetry/monitors.h"
#include "test_helpers.h"
#include "util/check.h"

namespace fmnet::telemetry {
namespace {

switchsim::GroundTruth tiny_ground_truth() {
  // 4 ms, factor 2, one queue / one port, hand-built.
  switchsim::GroundTruth gt;
  gt.slots_per_ms = 4;
  gt.queue_len = {fmnet::TimeSeries({1, 5, 0, 2}, 1.0)};
  // Slot-level maxima exceed the end-of-ms instants in ms 0 and ms 1:
  // bursts that drained before the ms boundary.
  gt.queue_len_max = {fmnet::TimeSeries({3, 7, 1, 2}, 1.0)};
  gt.port_sent = {fmnet::TimeSeries({4, 4, 2, 3}, 1.0)};
  gt.port_dropped = {fmnet::TimeSeries({0, 1, 0, 0}, 1.0)};
  gt.port_received = {fmnet::TimeSeries({5, 6, 1, 3}, 1.0)};
  return gt;
}

TEST(Monitors, SamplingSemantics) {
  const auto gt = tiny_ground_truth();
  const CoarseTelemetry ct = sample_telemetry(gt, 2);
  EXPECT_EQ(ct.num_intervals(), 2u);
  // Periodic: instantaneous at interval start (fine indices 0 and 2).
  EXPECT_EQ(ct.periodic_qlen[0].values(), (std::vector<double>{1, 0}));
  // LANZ: max of the slot-level per-ms maxima within the interval — NOT
  // of the end-of-ms instants, which would under-report the mid-ms burst
  // of 7 in ms 1 as a 5.
  EXPECT_EQ(ct.max_qlen[0].values(), (std::vector<double>{7, 2}));
  // SNMP: sums.
  EXPECT_EQ(ct.snmp_sent[0].values(), (std::vector<double>{8, 5}));
  EXPECT_EQ(ct.snmp_dropped[0].values(), (std::vector<double>{1, 0}));
  EXPECT_EQ(ct.snmp_received[0].values(), (std::vector<double>{11, 4}));
}

TEST(Monitors, RejectsNonMultipleLength) {
  const auto gt = tiny_ground_truth();
  EXPECT_THROW(sample_telemetry(gt, 3), CheckError);
}

TEST(Monitors, TrimToMultiple) {
  const auto gt = tiny_ground_truth();
  const auto trimmed = trim_to_multiple(gt, 3);
  EXPECT_EQ(trimmed.num_ms(), 3u);
  EXPECT_EQ(trimmed.queue_len[0].values(), (std::vector<double>{1, 5, 0}));
}

TEST(Monitors, GroundTruthSatisfiesC1C2OnCampaign) {
  const auto campaign = fmnet::testing::run_small_campaign(1, 200);
  const auto gt = trim_to_multiple(campaign.gt, 50);
  const CoarseTelemetry ct = sample_telemetry(gt, 50);
  for (std::size_t q = 0; q < gt.queue_len.size(); ++q) {
    for (std::size_t w = 0; w < ct.num_intervals(); ++w) {
      // C1 (upper bound): the fine end-of-ms series never exceeds the
      // LANZ report, which aggregates the slot-level per-ms maxima.
      double wmax = 0;
      double slot_max = 0;
      for (std::size_t t = w * 50; t < (w + 1) * 50; ++t) {
        wmax = std::max(wmax, gt.queue_len[q][t]);
        slot_max = std::max(slot_max, gt.queue_len_max[q][t]);
      }
      ASSERT_LE(wmax, ct.max_qlen[q][w]);
      ASSERT_EQ(slot_max, ct.max_qlen[q][w]);
      // C2: periodic sample matches the fine series at interval start.
      ASSERT_EQ(gt.queue_len[q][w * 50], ct.periodic_qlen[q][w]);
    }
  }
}

TEST(Monitors, LanzSeesMidMsBurstsOnCampaign) {
  // Regression for the max-telemetry under-reporting bug: sampling the
  // end-of-ms instants misses bursts that build and drain within one ms.
  // On a real campaign at least one window's slot-level max must strictly
  // exceed the ms-series max, so the two definitions are distinguishable.
  const auto campaign = fmnet::testing::run_small_campaign(3, 400);
  const auto gt = trim_to_multiple(campaign.gt, 50);
  const CoarseTelemetry ct = sample_telemetry(gt, 50);
  bool strictly_above = false;
  for (std::size_t q = 0; q < gt.queue_len.size(); ++q) {
    for (std::size_t w = 0; w < ct.num_intervals(); ++w) {
      double ms_max = 0;
      for (std::size_t t = w * 50; t < (w + 1) * 50; ++t) {
        ms_max = std::max(ms_max, gt.queue_len[q][t]);
      }
      strictly_above = strictly_above || ct.max_qlen[q][w] > ms_max;
    }
  }
  EXPECT_TRUE(strictly_above);
}

TEST(Monitors, GroundTruthSatisfiesC3WorkConservation) {
  // #non-empty fine steps (any queue of the port, and also per queue) must
  // not exceed SNMP packets sent in the interval: a non-empty queue at a
  // step boundary forces >= 1 departure during the next step because the
  // scheduler is work-conserving and service is >= 1 packet/ms.
  const auto campaign = fmnet::testing::run_small_campaign(2, 400);
  const auto gt = trim_to_multiple(campaign.gt, 50);
  const CoarseTelemetry ct = sample_telemetry(gt, 50);
  const std::int32_t qpp = campaign.config.queues_per_port;
  const auto ports = static_cast<std::size_t>(campaign.config.num_ports);
  for (std::size_t p = 0; p < ports; ++p) {
    for (std::size_t w = 0; w < ct.num_intervals(); ++w) {
      std::int64_t ne = 0;
      for (std::size_t t = w * 50; t < (w + 1) * 50; ++t) {
        bool nonempty = false;
        for (std::int32_t c = 0; c < qpp; ++c) {
          nonempty = nonempty ||
                     gt.queue_len[p * qpp + static_cast<std::size_t>(c)][t] >
                         0.0;
        }
        ne += nonempty ? 1 : 0;
      }
      // Start-of-ms alignment makes this exact: every non-empty step sends
      // at least one packet within that same step.
      ASSERT_LE(ne, static_cast<std::int64_t>(ct.snmp_sent[p][w]))
          << "port " << p << " window " << w;
    }
  }
}

DatasetConfig small_dataset_config() {
  DatasetConfig cfg;
  cfg.window_ms = 100;
  cfg.factor = 50;
  cfg.qlen_scale = 200.0;
  cfg.count_scale = 500.0;
  return cfg;
}

TEST(Dataset, ShapesAndWindowTiling) {
  const auto campaign = fmnet::testing::run_small_campaign(3, 400);
  const auto gt = trim_to_multiple(campaign.gt, 50);
  const CoarseTelemetry ct = sample_telemetry(gt, 50);
  const auto cfg = small_dataset_config();
  const auto examples =
      build_examples(gt, ct, cfg, campaign.config.queues_per_port);
  const std::size_t queues = gt.queue_len.size();
  EXPECT_EQ(examples.size(), queues * (400 / cfg.window_ms));
  for (const auto& ex : examples) {
    ASSERT_EQ(ex.features.size(), cfg.window_ms * kNumInputChannels);
    ASSERT_EQ(ex.target.size(), cfg.window_ms);
    ASSERT_EQ(ex.constraints.window_max.size(),
              cfg.window_ms / cfg.factor);
    ASSERT_EQ(ex.constraints.sample_idx.size(),
              cfg.window_ms / cfg.factor);
    ASSERT_EQ(ex.port, ex.queue / campaign.config.queues_per_port);
  }
}

TEST(Dataset, FeaturesMatchTelemetryAndNormalisation) {
  const auto campaign = fmnet::testing::run_small_campaign(4, 200);
  const auto gt = trim_to_multiple(campaign.gt, 50);
  const CoarseTelemetry ct = sample_telemetry(gt, 50);
  const auto cfg = small_dataset_config();
  const auto examples =
      build_examples(gt, ct, cfg, campaign.config.queues_per_port);
  for (const auto& ex : examples) {
    const auto q = static_cast<std::size_t>(ex.queue);
    const auto p = static_cast<std::size_t>(ex.port);
    for (std::size_t t = 0; t < cfg.window_ms; t += 17) {
      const std::size_t interval = (ex.start_ms + t) / cfg.factor;
      const float* row = ex.features.data() + t * kNumInputChannels;
      ASSERT_FLOAT_EQ(
          row[kChannelPeriodicQlen],
          static_cast<float>(ct.periodic_qlen[q][interval] / cfg.qlen_scale));
      ASSERT_FLOAT_EQ(
          row[kChannelMaxQlen],
          static_cast<float>(ct.max_qlen[q][interval] / cfg.qlen_scale));
      ASSERT_FLOAT_EQ(
          row[kChannelPortSent],
          static_cast<float>(ct.snmp_sent[p][interval] / cfg.count_scale));
      ASSERT_FLOAT_EQ(row[kChannelPortDropped],
                      static_cast<float>(ct.snmp_dropped[p][interval] /
                                         cfg.count_scale));
      ASSERT_FLOAT_EQ(ex.target[t],
                      static_cast<float>(gt.queue_len[q][ex.start_ms + t] /
                                         cfg.qlen_scale));
    }
  }
}

TEST(Dataset, GroundTruthTargetSatisfiesConstraints) {
  // The normalised target must satisfy the example's own constraint data —
  // this ties monitors, dataset and KAL semantics together.
  const auto campaign = fmnet::testing::run_small_campaign(5, 600);
  const auto gt = trim_to_multiple(campaign.gt, 50);
  const CoarseTelemetry ct = sample_telemetry(gt, 50);
  const auto cfg = small_dataset_config();
  const auto examples =
      build_examples(gt, ct, cfg, campaign.config.queues_per_port);
  for (const auto& ex : examples) {
    std::vector<double> target(ex.target.begin(), ex.target.end());
    const auto v = fmnet::testing::checked(target, ex.constraints);
    ASSERT_NEAR(v.c1.violation, 0.0, 1e-5);
    ASSERT_NEAR(v.c2.violation, 0.0, 1e-5);
    // C3 on a single queue is weaker than the port-level bound, so the
    // per-queue NE must satisfy the per-port budget too.
    ASSERT_NEAR(v.c3.violation, 0.0, 1e-5);
  }
}

TEST(Dataset, OnlineExamplesCarryNoTarget) {
  // Offline examples carry their ground-truth target and ask for the whole
  // window. An online window has no target and asks for its newest
  // interval alone: WindowBuffer's example of the same intervals is the
  // same example with an empty target and output_from = window − factor.
  const auto campaign = fmnet::testing::run_small_campaign(7, 400);
  const auto gt = trim_to_multiple(campaign.gt, 50);
  const CoarseTelemetry ct = sample_telemetry(gt, 50);
  const auto cfg = small_dataset_config();
  const ImputationExample offline =
      build_examples(gt, ct, cfg, campaign.config.queues_per_port).back();
  ASSERT_EQ(offline.target.size(), cfg.window_ms);
  EXPECT_EQ(offline.output_from, 0u);
  const auto q = static_cast<std::size_t>(offline.queue);
  const auto p = static_cast<std::size_t>(offline.port);
  impute::WindowBuffer buffer(cfg.window_ms / cfg.factor, cfg.factor,
                              cfg.qlen_scale, cfg.count_scale);
  for (std::size_t i = offline.start_ms / cfg.factor; !buffer.ready(); ++i) {
    buffer.push({ct.periodic_qlen[q][i], ct.max_qlen[q][i],
                 ct.snmp_sent[p][i], ct.snmp_dropped[p][i]});
  }
  const ImputationExample online = buffer.make_example();
  EXPECT_TRUE(online.target.empty());
  EXPECT_EQ(online.window, offline.window);
  EXPECT_EQ(online.output_from, cfg.window_ms - cfg.factor);
  EXPECT_EQ(online.features, offline.features);
  EXPECT_EQ(online.constraints.sample_val, offline.constraints.sample_val);
}

void expect_same_example(const ImputationExample& got,
                         const ImputationExample& want) {
  EXPECT_EQ(got.features, want.features);
  EXPECT_EQ(got.target, want.target);
  const constraints::ExampleConstraints& c = got.constraints;
  const constraints::ExampleConstraints& w = want.constraints;
  EXPECT_EQ(c.sample_idx, w.sample_idx);
  EXPECT_EQ(c.sample_val, w.sample_val);
  EXPECT_EQ(c.window_max, w.window_max);
  EXPECT_EQ(c.window_max_valid, w.window_max_valid);
  EXPECT_EQ(c.port_sent, w.port_sent);
  EXPECT_EQ(c.coarse_factor, w.coarse_factor);
  EXPECT_EQ(c.ne_tanh_scale, w.ne_tanh_scale);
  EXPECT_EQ(got.queue, want.queue);
  EXPECT_EQ(got.port, want.port);
  EXPECT_EQ(got.start_ms, want.start_ms);
  EXPECT_EQ(got.window, want.window);
  EXPECT_EQ(got.output_from, want.output_from);
  EXPECT_EQ(got.qlen_scale, want.qlen_scale);
  EXPECT_EQ(got.count_scale, want.count_scale);
}

TEST(Dataset, RefilledExampleEqualsFreshOne) {
  // serve::Session refills one example per window in place. Whatever the
  // example held before — a longer window, lost reports, a target, ids —
  // the refill equals a freshly built example field for field.
  const std::vector<CoarseIntervalUpdate> reports = {
      {3, 9, 40, 1}, {0, 4, 12, 0}, {7, 12, 55, 2}};
  const std::vector<ReportValidity> validity = {
      {true, true}, {false, true}, {true, false}};
  ImputationExample stale = build_example(reports, validity, 4, 10.0, 50.0);
  stale.target.assign(stale.window, 0.5f);
  stale.queue = 3;
  stale.port = 1;
  stale.start_ms = 12;
  stale.output_from = 4;

  impute::WindowBuffer buffer(2, 4, 10.0, 50.0);
  for (const CoarseIntervalUpdate& u : reports) buffer.push(u);
  ImputationExample refilled = stale;
  buffer.fill_example(refilled);
  expect_same_example(refilled, buffer.make_example());

  // And back: the online example refilled as the faulted offline one.
  build_example(reports, validity, 4, 10.0, 50.0, refilled);
  expect_same_example(refilled,
                      build_example(reports, validity, 4, 10.0, 50.0));
}

TEST(Dataset, SplitCoversAllAndDisjoint) {
  const auto campaign = fmnet::testing::run_small_campaign(6, 400);
  const auto gt = trim_to_multiple(campaign.gt, 50);
  const CoarseTelemetry ct = sample_telemetry(gt, 50);
  const auto cfg = small_dataset_config();
  auto examples =
      build_examples(gt, ct, cfg, campaign.config.queues_per_port);
  const std::size_t total = examples.size();
  const auto split = split_examples(std::move(examples));
  EXPECT_EQ(split.train.size() + split.test.size(), total);
  EXPECT_FALSE(split.train.empty());
  EXPECT_FALSE(split.test.empty());
  for (const auto& ex : split.train) {
    EXPECT_EQ((ex.start_ms / ex.window) % 2, 0u);
  }
  for (const auto& ex : split.test) {
    EXPECT_EQ((ex.start_ms / ex.window) % 2, 1u);
  }
}

}  // namespace
}  // namespace fmnet::telemetry
