// Tests for burst detection and the Table-1 metric definitions (rows a–c
// and j through constraints::Checker).
#include <gtest/gtest.h>

#include <cmath>

#include "constraints/constraints.h"
#include "tasks/bursts.h"
#include "tasks/metrics.h"
#include "tasks/netcalc.h"
#include "util/check.h"

namespace fmnet::tasks {
namespace {

TEST(BurstDetect, FindsMaximalRuns) {
  const std::vector<double> q{0, 0, 5, 7, 6, 0, 0, 8, 0};
  const auto bursts = detect_bursts(q, 5.0);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].start, 2u);
  EXPECT_EQ(bursts[0].end, 5u);
  EXPECT_EQ(bursts[0].height, 7.0);
  EXPECT_EQ(bursts[0].duration(), 3u);
  EXPECT_EQ(bursts[1].start, 7u);
  EXPECT_EQ(bursts[1].end, 8u);
  EXPECT_EQ(bursts[1].height, 8.0);
}

TEST(BurstDetect, BurstAtSeriesEndIsClosed) {
  const std::vector<double> q{0, 9, 9};
  const auto bursts = detect_bursts(q, 5.0);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].end, 3u);
}

TEST(BurstDetect, NoBurstsBelowThreshold) {
  EXPECT_TRUE(detect_bursts({1, 2, 3}, 5.0).empty());
  EXPECT_THROW(detect_bursts({1, 2}, 0.0), CheckError);
}

TEST(BurstDetect, IndicatorMatchesBursts) {
  const std::vector<double> q{0, 6, 0, 6, 6};
  const auto ind = burst_indicator(q, 5.0);
  EXPECT_EQ(ind, (std::vector<char>{0, 1, 0, 1, 1}));
}

TEST(BurstDetect, OverlapPredicate) {
  const Burst a{2, 5, 7.0};
  const Burst b{4, 6, 3.0};
  const Burst c{5, 8, 3.0};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));  // [2,5) and [5,8) touch but don't overlap
}

using constraints::Checker;
using constraints::ExampleConstraints;

TEST(Consistency, ZeroForSatisfiedSeries) {
  ExampleConstraints c;
  c.coarse_factor = 4;
  c.window_max = {3.0f};
  c.port_sent = {4.0f};
  c.sample_idx = {0};
  c.sample_val = {1.0f};
  Checker acc;
  acc.add({1, 3, 2, 0}, c);
  EXPECT_DOUBLE_EQ(acc.c1.error(), 0.0);
  EXPECT_DOUBLE_EQ(acc.c2.error(), 0.0);
  EXPECT_DOUBLE_EQ(acc.c3.error(), 0.0);
}

TEST(Consistency, NormalisedViolations) {
  ExampleConstraints c;
  c.coarse_factor = 4;
  c.window_max = {4.0f};
  c.port_sent = {2.0f};
  c.sample_idx = {0};
  c.sample_val = {2.0f};
  Checker acc;
  // max is 5 (relu(5-4)=1 over norm 4 = 0.25); sample err 1 over norm
  // max(sample 2, interval max 4) = 4; NE = 4 > 2 (violation 2 over 2).
  acc.add({1, 5, 1, 1}, c);
  EXPECT_NEAR(acc.c1.error(), 0.25, 1e-9);
  EXPECT_NEAR(acc.c2.error(), 0.25, 1e-9);
  EXPECT_NEAR(acc.c3.error(), 1.0, 1e-9);
  // C1 is an upper bound: staying below the LANZ max is not a violation.
  Checker under;
  under.add({1, 2, 1, 1}, c);
  EXPECT_NEAR(under.c1.error(), 0.0, 1e-9);
}

TEST(Consistency, AccumulatesAcrossWindows) {
  ExampleConstraints c;
  c.coarse_factor = 2;
  c.window_max = {2.0f, 4.0f};
  c.port_sent = {2.0f, 2.0f};
  Checker acc;
  // relu(3-2) + relu(6-4) = 3 over norm 2 + 4 = 6.
  acc.add({3, 0, 6, 0}, c);
  EXPECT_NEAR(acc.c1.error(), 3.0 / 6.0, 1e-9);
}

TEST(C4Bound, FormulaAndBufferCollapse) {
  // σ = 10, ρ = 3, T = 2, R = 5, H = 100: ρ < R so no residual growth —
  // B* = σ + ρT = 16, under the buffer.
  C4Config c4;
  c4.arrival_burst = 10.0;
  c4.arrival_rate = 3.0;
  c4.latency_ms = 2.0;
  EXPECT_DOUBLE_EQ(c4_backlog_bound(c4, 5.0, 200.0, 100.0), 16.0);
  // ρ = 8 > R = 5: the excess accumulates over the remaining horizon —
  // B* = 10 + 8·2 + 3·98 = 320, capped by the 200-packet buffer.
  c4.arrival_rate = 8.0;
  EXPECT_DOUBLE_EQ(c4_backlog_bound(c4, 5.0, 200.0, 100.0), 200.0);
  EXPECT_DOUBLE_EQ(c4_backlog_bound(c4, 5.0, 400.0, 100.0), 320.0);
  // No envelope keys: the only sound worst case is the buffer itself.
  EXPECT_DOUBLE_EQ(c4_backlog_bound({}, 5.0, 200.0, 100.0), 200.0);
  // Invalid inputs (including NaN, which fails the GE check) are rejected.
  c4.arrival_burst = -1.0;
  EXPECT_THROW(c4_backlog_bound(c4, 5.0, 200.0, 100.0), CheckError);
  c4.arrival_burst = std::nan("");
  EXPECT_THROW(c4_backlog_bound(c4, 5.0, 200.0, 100.0), CheckError);
}

TEST(C4Bound, AccumulatorNormalisedViolations) {
  ExampleConstraints c;
  c.coarse_factor = 4;
  c.window_max = {9.0f, 9.0f};
  c.port_sent = {4.0f, 4.0f};
  Checker acc;
  // Interval maxima 3 and 7 against a bound of 5: relu(3−5) + relu(7−5)
  // = 2 over norm 5 + 5 = 10.
  acc.add({1, 3, 2, 0, 7, 1, 0, 0}, c, 5.0);
  EXPECT_NEAR(acc.c4.error(), 2.0 / 10.0, 1e-9);
  // Staying below the bound is not a violation (it is an upper bound).
  c.window_max = {9.0f};
  c.port_sent = {4.0f};
  Checker under;
  under.add({1, 3, 2, 0}, c, 5.0);
  EXPECT_DOUBLE_EQ(under.c4.error(), 0.0);
  // Without a bound, C4 is not checked at all.
  Checker unbounded;
  unbounded.add({1, 3, 2, 0}, c);
  EXPECT_DOUBLE_EQ(unbounded.c4.norm, 0.0);
}

TEST(C4Bound, FaultMaskedIntervalsAreExempt) {
  // The second interval's LANZ report was lost (window_max_valid == 0):
  // its imputed peak of 7 contributes neither violation nor norm, exactly
  // like C1's exemption during CEM repair.
  ExampleConstraints c;
  c.coarse_factor = 4;
  c.window_max = {3.0f, 0.0f};
  c.window_max_valid = {1, 0};
  c.port_sent = {4.0f, 4.0f};
  Checker acc;
  acc.add({1, 3, 2, 0, 7, 1, 0, 0}, c, 5.0);
  EXPECT_DOUBLE_EQ(acc.c4.violation, 0.0);
  EXPECT_DOUBLE_EQ(acc.c4.norm, 5.0);
}

TEST(BurstMetricsTest, PerfectImputationZeroErrors) {
  const std::vector<double> q{0, 0, 9, 9, 0, 0, 7, 0, 0, 0};
  const auto m = burst_metrics(q, q, 5.0);
  EXPECT_DOUBLE_EQ(m.detection_error, 0.0);
  EXPECT_DOUBLE_EQ(m.height_error, 0.0);
  EXPECT_DOUBLE_EQ(m.frequency_error, 0.0);
  EXPECT_DOUBLE_EQ(m.interarrival_error, 0.0);
  EXPECT_DOUBLE_EQ(m.empty_freq_error, 0.0);
}

TEST(BurstMetricsTest, MissedBurstScoresFullHeightError) {
  const std::vector<double> truth{0, 9, 0, 0, 9, 0};
  const std::vector<double> imputed{0, 9, 0, 0, 0, 0};  // second burst lost
  const auto m = burst_metrics(truth, imputed, 5.0);
  EXPECT_NEAR(m.height_error, 0.5, 1e-9);  // (0 + 1)/2
  EXPECT_NEAR(m.frequency_error, 0.5, 1e-9);  // 1 vs 2
  EXPECT_GT(m.detection_error, 0.0);
}

TEST(BurstMetricsTest, HeightErrorUsesOverlappingBurst) {
  const std::vector<double> truth{0, 10, 10, 0};
  const std::vector<double> imputed{0, 6, 6, 0};
  const auto m = burst_metrics(truth, imputed, 5.0);
  EXPECT_NEAR(m.height_error, 0.4, 1e-9);  // |6-10|/10
  EXPECT_DOUBLE_EQ(m.detection_error, 0.0);
}

TEST(BurstMetricsTest, DetectionJaccard) {
  const std::vector<double> truth{9, 9, 9, 9, 0, 0};
  const std::vector<double> imputed{9, 9, 0, 0, 9, 0};
  // truth steps {0,1,2,3}, imputed {0,1,4}: inter 2, union 5.
  const auto m = burst_metrics(truth, imputed, 5.0);
  EXPECT_NEAR(m.detection_error, 1.0 - 2.0 / 5.0, 1e-9);
}

TEST(BurstMetricsTest, InterarrivalRatio) {
  // Truth bursts start at 0 and 4 (ia 4); imputed at 0 and 8 (ia 8).
  std::vector<double> truth(12, 0.0);
  truth[0] = 9;
  truth[4] = 9;
  std::vector<double> imputed(12, 0.0);
  imputed[0] = 9;
  imputed[8] = 9;
  const auto m = burst_metrics(truth, imputed, 5.0);
  EXPECT_NEAR(m.interarrival_error, 1.0, 1e-6);  // |8-4|/4
}

TEST(BurstMetricsTest, EmptyQueueFrequency) {
  const std::vector<double> truth{0, 0, 1, 1};    // 50% empty
  const std::vector<double> imputed{0, 1, 1, 1};  // 25% empty
  const auto m = burst_metrics(truth, imputed, 5.0);
  EXPECT_NEAR(m.empty_freq_error, 0.5, 1e-6);
}

TEST(ConcurrentBursts, CountsSimultaneousQueues) {
  const std::vector<std::vector<double>> truth{
      {9, 9, 0, 0},
      {9, 0, 0, 0},
  };
  // mean concurrency truth: (2 + 1 + 0 + 0)/4 = 0.75
  const std::vector<std::vector<double>> imputed{
      {9, 0, 0, 0},
      {0, 0, 0, 0},
  };
  // imputed: (1+0+0+0)/4 = 0.25 -> error = 0.5/0.75
  EXPECT_NEAR(concurrent_burst_error(truth, imputed, 5.0), 2.0 / 3.0, 1e-6);
}

TEST(ConcurrentBursts, ZeroWhenIdentical) {
  const std::vector<std::vector<double>> queues{
      {9, 9, 0, 0},
      {0, 9, 9, 0},
  };
  EXPECT_NEAR(concurrent_burst_error(queues, queues, 5.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace fmnet::tasks
