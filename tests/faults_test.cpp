// Property tests for the telemetry fault-injection subsystem: identity at
// rate 0, seed-stream determinism across lane counts, canonical injector
// composition, SNMP wrap/recovery arithmetic, the degradation-aware
// constraint semantics (KAL, CEM, consistency metrics), and the cache-key
// guarantee that a clean scenario is byte-identical to the pre-fault
// pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "core/pipeline.h"
#include "core/scenario.h"
#include "faults/faults.h"
#include "impute/cem.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "test_helpers.h"

namespace fmnet {
namespace {

/// Synthetic but structurally valid coarse telemetry: `queues` queues over
/// `ports` ports, deterministic values, maxima >= periodic samples.
telemetry::CoarseTelemetry synthetic_telemetry(std::size_t queues,
                                               std::size_t ports,
                                               std::size_t intervals) {
  telemetry::CoarseTelemetry ct;
  ct.factor = 50;
  for (std::size_t q = 0; q < queues; ++q) {
    std::vector<double> periodic(intervals);
    std::vector<double> maxima(intervals);
    for (std::size_t k = 0; k < intervals; ++k) {
      periodic[k] = static_cast<double>((q * 31 + 7 * k) % 90);
      maxima[k] = periodic[k] + static_cast<double>(k % 13);
    }
    ct.periodic_qlen.emplace_back(periodic, 50.0);
    ct.max_qlen.emplace_back(maxima, 50.0);
  }
  for (std::size_t p = 0; p < ports; ++p) {
    std::vector<double> sent(intervals);
    std::vector<double> dropped(intervals);
    std::vector<double> received(intervals);
    for (std::size_t k = 0; k < intervals; ++k) {
      sent[k] = static_cast<double>((p * 11 + 3 * k) % 40);
      dropped[k] = static_cast<double>(k % 3);
      received[k] = sent[k] + dropped[k];
    }
    ct.snmp_sent.emplace_back(sent, 50.0);
    ct.snmp_dropped.emplace_back(dropped, 50.0);
    ct.snmp_received.emplace_back(received, 50.0);
  }
  return ct;
}

/// A fault profile exercising every injector at once.
faults::FaultConfig everything_config() {
  faults::FaultConfig c;
  c.seed = 11;
  c.periodic_drop = 0.3;
  c.lanz_drop = 0.2;
  c.lanz_late = 0.2;
  c.snmp_jitter = 0.4;
  c.snmp_wrap_bits = 16;
  c.duplicate = 0.1;
  c.reorder = 0.1;
  c.noise = 2.0;
  c.quantize = 4;
  return c;
}

void expect_coarse_eq(const telemetry::CoarseTelemetry& a,
                      const telemetry::CoarseTelemetry& b) {
  EXPECT_EQ(a.periodic_qlen, b.periodic_qlen);
  EXPECT_EQ(a.max_qlen, b.max_qlen);
  EXPECT_EQ(a.snmp_sent, b.snmp_sent);
  EXPECT_EQ(a.snmp_dropped, b.snmp_dropped);
  EXPECT_EQ(a.snmp_received, b.snmp_received);
}

void expect_examples_eq(
    const std::vector<telemetry::ImputationExample>& a,
    const std::vector<telemetry::ImputationExample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].features, b[i].features);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].constraints.sample_idx, b[i].constraints.sample_idx);
    EXPECT_EQ(a[i].constraints.sample_val, b[i].constraints.sample_val);
    EXPECT_EQ(a[i].constraints.window_max, b[i].constraints.window_max);
    EXPECT_EQ(a[i].constraints.window_max_valid,
              b[i].constraints.window_max_valid);
    EXPECT_EQ(a[i].constraints.port_sent, b[i].constraints.port_sent);
    EXPECT_EQ(a[i].queue, b[i].queue);
    EXPECT_EQ(a[i].start_ms, b[i].start_ms);
  }
}

/// The small deterministic campaign used by the end-to-end properties.
core::Scenario small_scenario() {
  core::Scenario s;
  s.name = "faults-test";
  s.campaign.num_ports = 2;
  s.campaign.buffer_size = 200;
  s.campaign.slots_per_ms = 10;
  s.campaign.total_ms = 400;
  s.campaign.seed = 5;
  s.campaign.shard_ms = 100;
  s.window_ms = 100;
  s.factor = 50;
  return s;
}

TEST(FaultConfig, EnabledSemantics) {
  faults::FaultConfig c;
  EXPECT_FALSE(c.enabled());  // all knobs off

  c.periodic_drop = 0.5;
  EXPECT_TRUE(c.enabled());
  c.severity = 0.0;  // severity 0 disables everything
  EXPECT_FALSE(c.enabled());

  faults::FaultConfig q;
  q.quantize = 1;  // step 1 is the identity, not a fault
  EXPECT_FALSE(q.enabled());
  q.quantize = 2;
  EXPECT_TRUE(q.enabled());

  // Severity scales rates with clamping into [0,1].
  faults::FaultConfig r;
  r.periodic_drop = 0.4;
  r.severity = 0.5;
  EXPECT_DOUBLE_EQ(r.rate(r.periodic_drop), 0.2);
  r.severity = 10.0;
  EXPECT_DOUBLE_EQ(r.rate(r.periodic_drop), 1.0);
}

TEST(Faults, DisabledConfigIsIdentity) {
  const auto clean = synthetic_telemetry(4, 2, 32);

  // Rate 0 everywhere: no injectors, no masks, untouched series.
  faults::FaultConfig off;
  const auto id = faults::inject(clean, off);
  expect_coarse_eq(id.coarse, clean);
  EXPECT_TRUE(id.quality.empty());
  EXPECT_TRUE(faults::make_injectors(off).empty());

  // Rates configured but severity 0: same identity.
  faults::FaultConfig zeroed = everything_config();
  zeroed.severity = 0.0;
  const auto id2 = faults::inject(clean, zeroed);
  expect_coarse_eq(id2.coarse, clean);
  EXPECT_TRUE(id2.quality.empty());
}

TEST(Faults, SameSeedBitIdenticalAcrossLaneCounts) {
  const auto clean = synthetic_telemetry(4, 2, 64);
  const auto cfg = everything_config();
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  const auto a = faults::inject(clean, cfg, &one);
  const auto b = faults::inject(clean, cfg, &eight);
  expect_coarse_eq(a.coarse, b.coarse);
  EXPECT_EQ(a.quality.periodic_valid, b.quality.periodic_valid);
  EXPECT_EQ(a.quality.lanz_valid, b.quality.lanz_valid);
}

TEST(Faults, CompositionOrderIsCanonicalised) {
  const auto clean = synthetic_telemetry(4, 2, 64);
  const auto cfg = everything_config();

  auto ordered = faults::make_injectors(cfg);
  ASSERT_GT(ordered.size(), 2u);
  auto reversed = faults::make_injectors(cfg);
  std::reverse(reversed.begin(), reversed.end());

  const auto a = faults::inject(clean, std::move(ordered), cfg.seed);
  const auto b = faults::inject(clean, std::move(reversed), cfg.seed);
  expect_coarse_eq(a.coarse, b.coarse);
  EXPECT_EQ(a.quality.periodic_valid, b.quality.periodic_valid);
  EXPECT_EQ(a.quality.lanz_valid, b.quality.lanz_valid);
}

TEST(Faults, DropsAreLocfAndMasked) {
  const auto clean = synthetic_telemetry(2, 1, 40);

  // Rate 1: every periodic sample is lost; the collector holds the initial
  // (empty) reading and every interval is marked invalid.
  faults::FaultConfig all;
  all.seed = 3;
  all.periodic_drop = 1.0;
  const auto t = faults::inject(clean, all);
  for (std::size_t q = 0; q < 2; ++q) {
    for (std::size_t k = 0; k < 40; ++k) {
      EXPECT_EQ(t.quality.periodic_valid[q][k], 0);
      EXPECT_EQ(t.coarse.periodic_qlen[q][k], 0.0);
    }
    // LANZ untouched, still fully valid.
    EXPECT_EQ(t.coarse.max_qlen[q].values(), clean.max_qlen[q].values());
    for (std::size_t k = 0; k < 40; ++k) {
      EXPECT_EQ(t.quality.lanz_valid[q][k], 1);
    }
  }

  // Partial drops: masked intervals carry the last surviving value,
  // unmasked intervals are untouched.
  faults::FaultConfig part;
  part.seed = 3;
  part.lanz_drop = 0.5;
  const auto u = faults::inject(clean, part);
  bool saw_drop = false;
  for (std::size_t q = 0; q < 2; ++q) {
    double last = 0.0;
    for (std::size_t k = 0; k < 40; ++k) {
      if (u.quality.lanz_valid[q][k] != 0) {
        EXPECT_EQ(u.coarse.max_qlen[q][k], clean.max_qlen[q][k]);
        last = clean.max_qlen[q][k];
      } else {
        saw_drop = true;
        EXPECT_EQ(u.coarse.max_qlen[q][k], last);
      }
    }
  }
  EXPECT_TRUE(saw_drop);
}

TEST(Faults, LanzLateKeepsValidIntervalsSoundUpperBounds) {
  const auto clean = synthetic_telemetry(4, 2, 64);
  faults::FaultConfig cfg;
  cfg.seed = 9;
  cfg.lanz_late = 0.4;
  const auto t = faults::inject(clean, cfg);
  bool saw_late = false;
  for (std::size_t q = 0; q < 4; ++q) {
    for (std::size_t k = 0; k < 64; ++k) {
      if (t.quality.lanz_valid[q][k] != 0) {
        // A surviving report may have absorbed a late predecessor via max,
        // so it is still an upper bound on the interval's true maximum.
        EXPECT_GE(t.coarse.max_qlen[q][k], clean.max_qlen[q][k]);
      } else {
        saw_late = true;
      }
    }
  }
  EXPECT_TRUE(saw_late);
}

TEST(Faults, SnmpJitterConservesTotalsAndNonNegativity) {
  const auto clean = synthetic_telemetry(4, 2, 64);
  faults::FaultConfig cfg;
  cfg.seed = 13;
  cfg.snmp_jitter = 0.8;
  const auto t = faults::inject(clean, cfg);
  const std::vector<const std::vector<fmnet::TimeSeries>*> groups = {
      &clean.snmp_sent, &clean.snmp_dropped, &clean.snmp_received};
  const std::vector<const std::vector<fmnet::TimeSeries>*> faulted = {
      &t.coarse.snmp_sent, &t.coarse.snmp_dropped, &t.coarse.snmp_received};
  bool moved = false;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t p = 0; p < 2; ++p) {
      double clean_total = 0.0;
      double fault_total = 0.0;
      for (std::size_t k = 0; k < 64; ++k) {
        clean_total += (*groups[g])[p][k];
        fault_total += (*faulted[g])[p][k];
        EXPECT_GE((*faulted[g])[p][k], 0.0);
        moved = moved || (*faulted[g])[p][k] != (*groups[g])[p][k];
      }
      EXPECT_DOUBLE_EQ(fault_total, clean_total);
    }
  }
  EXPECT_TRUE(moved);
}

TEST(Faults, SnmpWrapIsMonotoneModuloAndExactlyRecoverable) {
  const auto clean = synthetic_telemetry(4, 2, 64);
  faults::FaultConfig cfg;
  cfg.seed = 17;
  cfg.snmp_wrap_bits = 16;
  auto t = faults::inject(clean, cfg);

  // The wrapped readings are diffs of a cumulative counter mod 2^16, and
  // the injector seeds the counter to wrap within the campaign: at least
  // one negative diff must appear in a series that counts anything.
  bool saw_wrap = false;
  for (const auto* group :
       {&t.coarse.snmp_sent, &t.coarse.snmp_dropped,
        &t.coarse.snmp_received}) {
    for (const auto& series : *group) {
      for (const double d : series.values()) saw_wrap = saw_wrap || d < 0.0;
    }
  }
  EXPECT_TRUE(saw_wrap);

  // Wrap faults are detectable and recoverable: per-interval counts here
  // stay far below 2^16, so wrap_correct restores the clean series
  // exactly — the reconstructed cumulative counter is monotone modulo the
  // wrap by construction.
  faults::wrap_correct(t.coarse, 16);
  EXPECT_EQ(t.coarse.snmp_sent, clean.snmp_sent);
  EXPECT_EQ(t.coarse.snmp_dropped, clean.snmp_dropped);
  EXPECT_EQ(t.coarse.snmp_received, clean.snmp_received);

  // Masks untouched: a wrapped counter is corruption the operator can
  // detect and undo, not a lost report.
  for (const auto& mask : t.quality.periodic_valid) {
    for (const auto m : mask) EXPECT_EQ(m, 1);
  }
}

TEST(Faults, QuantizeSnapsQueueChannelsToStep) {
  const auto clean = synthetic_telemetry(2, 1, 40);
  faults::FaultConfig cfg;
  cfg.quantize = 8;
  const auto t = faults::inject(clean, cfg);
  for (const auto* group : {&t.coarse.periodic_qlen, &t.coarse.max_qlen}) {
    for (const auto& series : *group) {
      for (const double x : series.values()) {
        EXPECT_DOUBLE_EQ(std::fmod(x, 8.0), 0.0);
      }
    }
  }
  // SNMP channels are counters, not queue lengths: untouched.
  EXPECT_EQ(t.coarse.snmp_sent, clean.snmp_sent);
}

TEST(Faults, NoiseKeepsValuesNonNegativeAndMasksValid) {
  const auto clean = synthetic_telemetry(2, 1, 64);
  faults::FaultConfig cfg;
  cfg.seed = 23;
  cfg.noise = 5.0;
  const auto t = faults::inject(clean, cfg);
  bool changed = false;
  for (const auto* group : {&t.coarse.periodic_qlen, &t.coarse.max_qlen}) {
    for (std::size_t q = 0; q < group->size(); ++q) {
      for (std::size_t k = 0; k < 64; ++k) {
        EXPECT_GE((*group)[q][k], 0.0);
      }
    }
  }
  for (std::size_t q = 0; q < 2; ++q) {
    changed = changed ||
              t.coarse.periodic_qlen[q].values() !=
                  clean.periodic_qlen[q].values();
    // Plausible corruption: the operator cannot detect noise, so every
    // mask stays valid — this is the hazard the robustness sweep measures.
    for (std::size_t k = 0; k < 64; ++k) {
      EXPECT_EQ(t.quality.periodic_valid[q][k], 1);
      EXPECT_EQ(t.quality.lanz_valid[q][k], 1);
    }
  }
  EXPECT_TRUE(changed);
}

TEST(Faults, PreparedDatasetBitIdenticalAcrossLaneCounts) {
  core::Scenario s = small_scenario();
  s.faults = everything_config();
  const core::Campaign campaign = core::run_campaign(s.campaign);

  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  const auto a =
      core::prepare_data(campaign, s.window_ms, s.factor, s.faults, &one);
  const auto b =
      core::prepare_data(campaign, s.window_ms, s.factor, s.faults, &eight);
  expect_coarse_eq(a.coarse, b.coarse);
  EXPECT_EQ(a.quality.periodic_valid, b.quality.periodic_valid);
  EXPECT_EQ(a.quality.lanz_valid, b.quality.lanz_valid);
  expect_examples_eq(a.split.train, b.split.train);
  expect_examples_eq(a.split.test, b.split.test);
}

TEST(Faults, BuildExamplesHonoursQualityMasks) {
  core::Scenario s = small_scenario();
  s.faults.seed = 2;
  s.faults.periodic_drop = 0.5;
  s.faults.lanz_drop = 0.5;
  const core::Campaign campaign = core::run_campaign(s.campaign);

  const auto clean = core::prepare_data(campaign, s.window_ms, s.factor);
  const auto faulted =
      core::prepare_data(campaign, s.window_ms, s.factor, s.faults);

  EXPECT_TRUE(clean.quality.empty());
  ASSERT_FALSE(faulted.quality.empty());

  std::size_t clean_samples = 0;
  std::size_t faulted_samples = 0;
  std::size_t invalid_windows = 0;
  std::size_t valid_windows = 0;
  for (const auto& ex : clean.split.train) {
    EXPECT_TRUE(ex.constraints.window_max_valid.empty());
    clean_samples += ex.constraints.sample_idx.size();
  }
  ASSERT_EQ(clean.split.train.size(), faulted.split.train.size());
  for (const auto& ex : faulted.split.train) {
    faulted_samples += ex.constraints.sample_idx.size();
    ASSERT_EQ(ex.constraints.window_max_valid.size(),
              ex.constraints.window_max.size());
    for (const auto v : ex.constraints.window_max_valid) {
      (v != 0 ? valid_windows : invalid_windows) += 1;
    }
  }
  // Dropped periodic reports emit no C2 equality at all.
  EXPECT_LT(faulted_samples, clean_samples);
  // Dropped LANZ reports invalidate C1 on exactly their intervals.
  EXPECT_GT(invalid_windows, 0u);
  EXPECT_GT(valid_windows, 0u);
  // The fine-grained targets are ground truth — faults never touch them.
  for (std::size_t i = 0; i < clean.split.train.size(); ++i) {
    EXPECT_EQ(clean.split.train[i].target, faulted.split.train[i].target);
  }
}

TEST(Constraints, EvaluationExemptsInvalidC1Windows) {
  constraints::ExampleConstraints c;
  c.coarse_factor = 2;
  c.window_max = {3.0f, 3.0f};
  c.port_sent = {2.0f, 2.0f};
  const std::vector<double> pred = {5.0, 5.0, 4.0, 4.0};

  const auto clean = fmnet::testing::checked(pred, c);
  EXPECT_DOUBLE_EQ(clean.c1.violation, 3.0);  // (5-3) + (4-3)

  c.window_max_valid = {0, 1};  // first window's LANZ report was lost
  const auto masked = fmnet::testing::checked(pred, c);
  EXPECT_DOUBLE_EQ(masked.c1.violation, 1.0);  // only (4-3)
  // The invalid window also leaves the normalisation, not just the
  // violation.
  EXPECT_DOUBLE_EQ(masked.c1.norm, 3.0);
}

TEST(Constraints, CemRelaxesC1WhereTheReportWasLost) {
  constraints::ExampleConstraints c;  // packet units: qlen_scale 1
  c.coarse_factor = 4;
  c.window_max = {2};    // stale carry-forward, far below the true queue
  c.port_sent = {4};
  const std::vector<double> imputed = {10.0, 10.0, 10.0, 10.0};
  const impute::ConstraintEnforcementModule cem;

  // Valid report: C1 binds and the series is clamped to the bound.
  const auto clamped = cem.correct(imputed, c, 1.0);
  ASSERT_TRUE(clamped.feasible);
  for (const double v : clamped.corrected) EXPECT_LE(v, 2.0);

  // Lost report: C1 must not bind — the correction never clamps to a
  // value the operator never received.
  c.window_max_valid = {0};
  const auto relaxed = cem.correct(imputed, c, 1.0);
  ASSERT_TRUE(relaxed.feasible);
  EXPECT_EQ(relaxed.objective, 0);
  for (const double v : relaxed.corrected) EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(Scenario, CleanCacheKeysAreByteIdenticalToPreFaultPipeline) {
  // Pinned against the key material produced before the faults subsystem
  // existed: a clean scenario must keep hitting caches written back then.
  const core::Scenario s;
  EXPECT_EQ(core::Engine::campaign_key(s.campaign),
            "557d7420a1c0e3e3769c2a01ad8f5228");
  EXPECT_EQ(core::Engine::dataset_key(s),
            "ac3303f1fda9da857ca9cd58d4e8df2e");
  EXPECT_EQ(core::Engine::checkpoint_key(s, "transformer+kal"),
            "d6a20ec755779428177a20871b407da7");
  EXPECT_EQ(core::canonical_faults(s), "");

  // severity 0 with rates configured is still the clean pipeline.
  core::Scenario zeroed = s;
  zeroed.faults.periodic_drop = 0.5;
  zeroed.faults.noise = 3.0;
  zeroed.faults.severity = 0.0;
  EXPECT_EQ(core::Engine::dataset_key(zeroed), core::Engine::dataset_key(s));
  EXPECT_EQ(core::Engine::checkpoint_key(zeroed, "transformer+kal"),
            core::Engine::checkpoint_key(s, "transformer+kal"));

  // Active faults re-key the dataset (and everything chained off it) but
  // never the campaign: the simulation is upstream of injection.
  core::Scenario faulted = s;
  faulted.faults.periodic_drop = 0.5;
  EXPECT_EQ(core::Engine::campaign_key(faulted.campaign),
            core::Engine::campaign_key(s.campaign));
  EXPECT_NE(core::Engine::dataset_key(faulted), core::Engine::dataset_key(s));
  EXPECT_NE(core::Engine::checkpoint_key(faulted, "transformer+kal"),
            core::Engine::checkpoint_key(s, "transformer+kal"));

  // The faults seed and severity are key material too (they change the
  // injected dataset).
  core::Scenario reseeded = faulted;
  reseeded.faults.seed = 99;
  EXPECT_NE(core::Engine::dataset_key(reseeded),
            core::Engine::dataset_key(faulted));
}

TEST(Scenario, FaultOptionsRoundTripThroughCanonicalForm) {
  core::Scenario s;
  s.faults = everything_config();
  const std::string text = core::canonical_scenario(s);
  const core::Scenario parsed = core::parse_scenario_string(text);
  EXPECT_EQ(core::canonical_scenario(parsed), text);
  EXPECT_EQ(parsed.faults.seed, s.faults.seed);
  EXPECT_DOUBLE_EQ(parsed.faults.periodic_drop, s.faults.periodic_drop);
  EXPECT_EQ(parsed.faults.snmp_wrap_bits, s.faults.snmp_wrap_bits);
  EXPECT_EQ(parsed.faults.quantize, s.faults.quantize);

  // Validation: rates outside [0,1] and bad wrap widths are hard errors.
  core::Scenario t;
  EXPECT_THROW(core::apply_scenario_option(t, "faults.lanz-drop", "1.5"),
               CheckError);
  EXPECT_THROW(core::apply_scenario_option(t, "faults.snmp-wrap-bits", "33"),
               CheckError);
  EXPECT_THROW(core::apply_scenario_option(t, "faults.noise", "-1"),
               CheckError);
}

}  // namespace
}  // namespace fmnet
