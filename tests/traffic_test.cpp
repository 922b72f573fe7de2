// Tests for workload generators: rates, determinism, flow mechanics,
// incast fan-in shape.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "traffic/sources.h"
#include "util/check.h"

namespace fmnet::traffic {
namespace {

TEST(PoissonSourceTest, MatchesConfiguredRate) {
  PoissonSource src(0.5, 4, 0, fmnet::Rng(1));
  std::vector<Arrival> out;
  for (int s = 0; s < 20000; ++s) src.generate(s, out);
  EXPECT_NEAR(static_cast<double>(out.size()) / 20000.0, 0.5, 0.03);
  for (const Arrival& a : out) {
    ASSERT_GE(a.dst_port, 0);
    ASSERT_LT(a.dst_port, 4);
    ASSERT_EQ(a.queue_class, 0);
  }
}

TEST(PoissonSourceTest, DeterministicForSeed) {
  PoissonSource a(0.3, 4, 0, fmnet::Rng(9));
  PoissonSource b(0.3, 4, 0, fmnet::Rng(9));
  std::vector<Arrival> oa;
  std::vector<Arrival> ob;
  for (int s = 0; s < 1000; ++s) {
    a.generate(s, oa);
    b.generate(s, ob);
  }
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    ASSERT_EQ(oa[i].dst_port, ob[i].dst_port);
  }
}

TEST(FlowEngineTest, EmitsUntilExhausted) {
  FlowEngine eng;
  eng.add({.dst_port = 2, .queue_class = 1, .remaining = 3, .emit_prob = 1.0});
  fmnet::Rng rng(2);
  std::vector<Arrival> out;
  for (int s = 0; s < 5; ++s) eng.emit(out, rng);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(eng.active_flows(), 0u);
  for (const Arrival& a : out) {
    EXPECT_EQ(a.dst_port, 2);
    EXPECT_EQ(a.queue_class, 1);
  }
}

TEST(FlowEngineTest, EmitProbThrottles) {
  FlowEngine eng;
  eng.add({.dst_port = 0, .queue_class = 0, .remaining = 1000,
           .emit_prob = 0.25});
  fmnet::Rng rng(3);
  std::vector<Arrival> out;
  for (int s = 0; s < 1000; ++s) eng.emit(out, rng);
  EXPECT_NEAR(static_cast<double>(out.size()) / 1000.0, 0.25, 0.05);
}

TEST(FlowEngineTest, RejectsInvalidFlow) {
  FlowEngine eng;
  EXPECT_THROW(eng.add({.remaining = 0}), CheckError);
  EXPECT_THROW(eng.add({.remaining = 5, .emit_prob = 0.0}), CheckError);
}

TEST(WebsearchSourceTest, ClassSplitByFlowSize) {
  WebsearchConfig cfg;
  cfg.flow_rate = 0.05;
  cfg.short_flow_threshold = 64;
  WebsearchSource src(cfg, 8, fmnet::Rng(4));
  std::vector<Arrival> out;
  for (int s = 0; s < 50000; ++s) src.generate(s, out);
  ASSERT_FALSE(out.empty());
  std::set<std::int32_t> classes;
  for (const Arrival& a : out) classes.insert(a.queue_class);
  // Heavy-tailed sizes must produce both short (class 0) and long (class 1)
  // flows over a long horizon.
  EXPECT_TRUE(classes.count(0));
  EXPECT_TRUE(classes.count(1));
}

TEST(WebsearchSourceTest, HeavyTailProducesLargeFlows) {
  WebsearchConfig cfg;
  cfg.flow_rate = 0.02;
  WebsearchSource src(cfg, 4, fmnet::Rng(5));
  std::vector<Arrival> out;
  std::size_t max_active = 0;
  for (int s = 0; s < 100000; ++s) {
    src.generate(s, out);
    max_active = std::max(max_active, src.active_flows());
  }
  // With pareto sizes and overlapping arrivals, concurrency > 1 at times.
  EXPECT_GE(max_active, 2u);
}

TEST(IncastSourceTest, FanInBurstTargetsOnePort) {
  IncastConfig cfg;
  cfg.event_rate = 1.0;  // deterministic-ish: expect events in slot 0
  cfg.fan_in = 16;
  cfg.pkts_per_sender = 2;
  IncastSource src(cfg, 8, fmnet::Rng(6));
  std::vector<Arrival> out;
  src.generate(0, out);
  ASSERT_FALSE(out.empty());
  // All packets of one event share a destination within a slot when only
  // one event fired; group by destination and check a dominant victim.
  std::map<std::int32_t, int> by_dst;
  for (const Arrival& a : out) ++by_dst[a.dst_port];
  int max_count = 0;
  for (const auto& [dst, cnt] : by_dst) max_count = std::max(max_count, cnt);
  EXPECT_GE(max_count, 8);
}

TEST(IncastSourceTest, InjectedEventVolumeAndShape) {
  IncastConfig cfg;
  cfg.event_rate = 0.0;  // only the injected event
  cfg.fan_in = 4;
  cfg.pkts_per_sender = 3;
  cfg.queue_class = 1;
  IncastSource src(cfg, 4, fmnet::Rng(7));
  src.inject_event(2);
  std::vector<Arrival> out;
  for (int s = 0; s < 10; ++s) {
    std::vector<Arrival> slot_out;
    src.generate(s, slot_out);
    // While draining, all fan_in senders emit concurrently each slot.
    if (s < 3) {
      EXPECT_EQ(slot_out.size(), 4u);
    } else {
      EXPECT_TRUE(slot_out.empty());
    }
    out.insert(out.end(), slot_out.begin(), slot_out.end());
  }
  EXPECT_EQ(out.size(), 4u * 3u);
  for (const Arrival& a : out) {
    EXPECT_EQ(a.dst_port, 2);
    EXPECT_EQ(a.queue_class, 1);
  }
  EXPECT_THROW(src.inject_event(99), CheckError);
}

TEST(CompositeSourceTest, SumsSources) {
  auto comp = std::make_unique<CompositeSource>();
  comp->add(std::make_unique<PoissonSource>(0.2, 2, 0, fmnet::Rng(10)));
  comp->add(std::make_unique<PoissonSource>(0.3, 2, 1, fmnet::Rng(11)));
  std::vector<Arrival> out;
  for (int s = 0; s < 20000; ++s) comp->generate(s, out);
  EXPECT_NEAR(static_cast<double>(out.size()) / 20000.0, 0.5, 0.03);
}

TEST(PaperWorkloadTest, ProducesBothClassesAndReasonableLoad) {
  auto src = make_paper_workload(8, 42);
  std::vector<Arrival> out;
  for (int s = 0; s < 90000; ++s) src->generate(s, out);  // 1 s of slots
  ASSERT_FALSE(out.empty());
  std::set<std::int32_t> classes;
  for (const Arrival& a : out) {
    classes.insert(a.queue_class);
    ASSERT_GE(a.dst_port, 0);
    ASSERT_LT(a.dst_port, 8);
  }
  EXPECT_TRUE(classes.count(0));
  EXPECT_TRUE(classes.count(1));
  // Aggregate load below capacity (8 ports x 1 pkt/slot) but non-trivial.
  const double load = static_cast<double>(out.size()) / (90000.0 * 8.0);
  EXPECT_GT(load, 0.05);
  EXPECT_LT(load, 1.0);
}

}  // namespace
}  // namespace fmnet::traffic
