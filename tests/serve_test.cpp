// Serving core: bit-exact determinism across lane counts and batch sizes,
// admission/shedding policy (oldest first, counters exact), async repair
// publication order (one tick behind the raw path), and the serve.*
// scenario vocabulary (round trip, section validation, cache-key
// invariance).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "impute/linear_interp.h"
#include "impute/registry.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fmnet {
namespace {

constexpr std::size_t kWindowIntervals = 4;
constexpr std::size_t kFactor = 10;
constexpr double kQlenScale = 200.0;
constexpr double kCountScale = 500.0;
constexpr double kIntervalS = 0.05;

/// Synthetic coarse telemetry with feasible constraints: max >= periodic
/// (C1/C2 compatible) and port_sent >= factor (C3 never binds), so CEM
/// repair always succeeds regardless of replay phase.
telemetry::CoarseTelemetry make_telemetry(std::size_t queues,
                                          std::size_t intervals,
                                          std::uint64_t seed) {
  telemetry::CoarseTelemetry ct;
  ct.factor = kFactor;
  Rng rng(seed);
  for (std::size_t q = 0; q < queues; ++q) {
    std::vector<double> periodic(intervals);
    std::vector<double> qmax(intervals);
    for (std::size_t i = 0; i < intervals; ++i) {
      periodic[i] = static_cast<double>(rng.uniform_int(0, 30));
      qmax[i] = periodic[i] + static_cast<double>(rng.uniform_int(0, 25));
    }
    ct.periodic_qlen.emplace_back(std::move(periodic), 50.0);
    ct.max_qlen.emplace_back(std::move(qmax), 50.0);
  }
  // One queue per port in these tests: per-port SNMP series align 1:1.
  for (std::size_t p = 0; p < queues; ++p) {
    std::vector<double> sent(intervals);
    std::vector<double> dropped(intervals);
    for (std::size_t i = 0; i < intervals; ++i) {
      sent[i] = static_cast<double>(
          rng.uniform_int(static_cast<std::int64_t>(kFactor),
                          4 * static_cast<std::int64_t>(kFactor)));
      dropped[i] = static_cast<double>(rng.uniform_int(0, 3));
    }
    ct.snmp_sent.emplace_back(std::move(sent), 50.0);
    ct.snmp_dropped.emplace_back(std::move(dropped), 50.0);
    ct.snmp_received.emplace_back(std::vector<double>(intervals, 0.0),
                                  50.0);
  }
  return ct;
}

serve::ServeConfig small_config(std::int64_t sessions) {
  serve::ServeConfig cfg;
  cfg.sessions = sessions;
  cfg.ticks = 12;
  cfg.max_batch = 64;
  cfg.queue_budget = 4096;
  cfg.repair_budget = 1024;
  return cfg;
}

/// A ServeCore over `model` (default: linear interpolation) on a dedicated
/// pool and virtual clock, fed by a ReplaySource of `ct` with one queue per
/// port. `ct` must outlive it.
struct Replay {
  Replay(const serve::ServeConfig& cfg, const telemetry::CoarseTelemetry& ct,
         std::size_t lanes,
         std::shared_ptr<impute::Imputer> model =
             impute::Registry::create("linear", {}))
      : pool(lanes),
        core(cfg, std::move(model), kWindowIntervals, kFactor, kQlenScale,
             kCountScale, impute::CemConfig{}, &clock, &pool),
        source(ct, /*queues_per_port=*/1, cfg.sessions) {}

  /// Runs the next tick, then advances the clock by one interval.
  void step(std::vector<serve::PublishedWindow>& out) {
    source.fill(core.ticks_seen(), updates);
    core.tick(updates, out);
    clock.advance(kIntervalS);
  }

  util::ThreadPool pool;
  util::VirtualClock clock;
  serve::ServeCore core;
  serve::ReplaySource source;
  std::vector<impute::CoarseIntervalUpdate> updates;
};

/// Runs a full replay and returns every published window in publication
/// order.
std::vector<serve::PublishedWindow> run_replay(
    const serve::ServeConfig& cfg, const telemetry::CoarseTelemetry& ct,
    std::size_t lanes) {
  Replay r(cfg, ct, lanes);
  std::vector<serve::PublishedWindow> out;
  for (std::int64_t t = 0; t < cfg.ticks; ++t) r.step(out);
  r.core.drain(out);
  return out;
}

void expect_identical(const std::vector<serve::PublishedWindow>& a,
                      const std::vector<serve::PublishedWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].session, b[i].session) << "i=" << i;
    EXPECT_EQ(a[i].tick, b[i].tick) << "i=" << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "i=" << i;
    ASSERT_EQ(a[i].fine, b[i].fine) << "i=" << i;  // bit-identical
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds) << "i=" << i;
  }
}

TEST(ServeCore, PublishedWindowsBitIdenticalAcrossLaneCounts) {
  // The tentpole determinism contract: sessions x ticks replay under a
  // virtual clock publishes the exact same sequence at 1 and at 8 lanes —
  // ingest sharding, the sharded forward and parallel repair may move work
  // between threads but never change a single published bit.
  const auto ct = make_telemetry(7, 37, /*seed=*/123);
  const auto one = run_replay(small_config(96), ct, 1);
  const auto eight = run_replay(small_config(96), ct, 8);
  ASSERT_GT(one.size(), 0u);
  expect_identical(one, eight);
  // Sanity: both raw and repaired windows were actually exercised.
  std::int64_t raw = 0;
  std::int64_t repaired = 0;
  for (const auto& p : one) {
    raw += p.kind == serve::WindowKind::kRaw ? 1 : 0;
    repaired += p.kind == serve::WindowKind::kRepaired ? 1 : 0;
  }
  EXPECT_GT(raw, 0);
  EXPECT_EQ(raw, repaired);  // drain() flushes the final tick's jobs
}

TEST(ServeCore, BatchSizeNeverChangesPublishedBits) {
  // Release grouping never shows in the output: max_batch 1 (every window
  // its own group) and 64 publish identically.
  const auto ct = make_telemetry(5, 29, /*seed=*/7);
  serve::ServeConfig one_cfg = small_config(48);
  one_cfg.max_batch = 1;
  serve::ServeConfig big_cfg = small_config(48);
  big_cfg.max_batch = 64;
  expect_identical(run_replay(one_cfg, ct, 4), run_replay(big_cfg, ct, 4));
}

/// The published stream as runs of consecutive sessions that share a kind,
/// an arrival tick and a latency in whole ticks of the virtual clock:
/// "raw t4 +0 s0-15" is the raw windows of sessions 0..15 that became
/// ready on tick 4 and published on that same tick.
std::vector<std::string> publication_runs(
    const std::vector<serve::PublishedWindow>& out) {
  static constexpr const char* kKinds[] = {"raw", "repaired", "degraded"};
  std::vector<std::string> runs;
  std::string key;
  std::int64_t first = 0;
  std::int64_t last = -2;
  const auto close = [&] {
    if (last >= 0) {
      runs.push_back(key + " s" + std::to_string(first) + "-" +
                     std::to_string(last));
    }
  };
  for (const auto& p : out) {
    std::string k =
        std::string(kKinds[static_cast<int>(p.kind)]) + " t" +
        std::to_string(p.tick) + " +" +
        std::to_string(std::lround(p.latency_seconds / kIntervalS));
    if (k == key && p.session == last + 1) {
      last = p.session;
      continue;
    }
    close();
    key = std::move(k);
    first = last = p.session;
  }
  close();
  return runs;
}

TEST(ServeCore, MaxDelayReleaseRuleIsPinned) {
  // Whole max_batch groups are released on the tick they fill; the partial
  // rest waits until its oldest window has waited max_delay_ticks, or until
  // drain forces it out. Repairs publish one tick behind their raw window.
  const auto ct = make_telemetry(5, 29, /*seed=*/7);
  serve::ServeConfig cfg = small_config(48);
  cfg.ticks = 8;
  cfg.max_batch = 64;
  cfg.max_delay_ticks = 2;
  // 48 windows a tick against groups of 64: ticks 4 to 6 release one group
  // each, tick 7 none, and the rest waits at most one tick.
  EXPECT_EQ(publication_runs(run_replay(cfg, ct, 4)),
            (std::vector<std::string>{
                "raw t3 +1 s0-47",       "raw t4 +0 s0-15",
                "repaired t3 +2 s0-47",  "repaired t4 +1 s0-15",
                "raw t4 +1 s16-47",      "raw t5 +0 s0-31",
                "repaired t4 +2 s16-47", "repaired t5 +1 s0-31",
                "raw t5 +1 s32-47",      "raw t6 +0 s0-47",
                "repaired t5 +2 s32-47", "repaired t6 +1 s0-47",
                "raw t7 +1 s0-47",       "repaired t7 +1 s0-47"}));
  // 20 windows a tick never fill a group: the delay releases ticks 3 to 5
  // on tick 5, and drain the last two ticks.
  cfg.sessions = 20;
  EXPECT_EQ(publication_runs(run_replay(cfg, ct, 4)),
            (std::vector<std::string>{
                "raw t3 +2 s0-19", "raw t4 +1 s0-19", "raw t5 +0 s0-19",
                "repaired t3 +3 s0-19", "repaired t4 +2 s0-19",
                "repaired t5 +1 s0-19", "raw t6 +2 s0-19", "raw t7 +1 s0-19",
                "repaired t6 +2 s0-19", "repaired t7 +1 s0-19"}));
}

/// Linear interpolation that counts its impute_batch calls.
struct CountingImputer : impute::LinearInterpImputer {
  std::vector<std::vector<double>> impute_batch(
      const std::vector<impute::ImputationExample>& batch) override {
    ++calls;
    return LinearInterpImputer::impute_batch(batch);
  }
  std::int64_t calls = 0;
};

TEST(ServeCore, OneForwardPerReleasingTick) {
  // 96 windows a tick are one whole group of 64 plus a rest of 32 that
  // max_delay_ticks = 0 releases at once: both go through a single
  // impute_batch call, at any lane count, and stats().batches counts it.
  const auto ct = make_telemetry(7, 37, /*seed=*/123);
  const serve::ServeConfig cfg = small_config(96);
  // Every session has a full window from this tick on.
  const auto first = static_cast<std::int64_t>(kWindowIntervals) - 1;
  for (const std::size_t lanes : {1u, 8u}) {
    const auto counting = std::make_shared<CountingImputer>();
    Replay r(cfg, ct, lanes, counting);
    std::vector<serve::PublishedWindow> out;
    for (std::int64_t t = 0; t < cfg.ticks; ++t) {
      const std::int64_t before = counting->calls;
      r.step(out);
      EXPECT_EQ(counting->calls - before, t >= first ? 1 : 0)
          << "lanes=" << lanes << " t=" << t;
    }
    EXPECT_EQ(r.core.stats().windows_raw, cfg.sessions * (cfg.ticks - first));
    EXPECT_EQ(r.core.stats().batches, counting->calls);
  }
}

TEST(ServeCore, ShedsOldestFirstWithExactCounters) {
  // Counters are global and other tests in this binary also serve
  // windows, so all obs assertions below are deltas against the values
  // captured here. (reset_for_testing would dangle the refs CEM and
  // earlier ServeCores cached.)
  auto& reg = obs::Registry::global();
  const std::int64_t shed0 = reg.counter("serve.shed.queue").value();
  const std::int64_t degraded0 =
      reg.counter("serve.windows.degraded").value();
  const std::int64_t raw0 = reg.counter("serve.windows.raw").value();
  const std::int64_t shed_repair0 =
      reg.counter("serve.shed.repair").value();
  const std::int64_t sessions = 32;
  serve::ServeConfig cfg = small_config(sessions);
  cfg.queue_budget = 8;
  cfg.repair = false;
  const auto ct = make_telemetry(4, 17, /*seed=*/55);
  Replay r(cfg, ct, 4);
  std::vector<serve::PublishedWindow> out;
  for (std::size_t t = 0; t < kWindowIntervals; ++t) r.step(out);
  r.core.drain(out);
  // All 32 windows became ready on the same tick; budget 8 sheds the 24
  // oldest — the lowest session ids, since same-tick windows are ordered
  // by session — to the degraded fallback, and serves the rest raw.
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(out[i].kind, serve::WindowKind::kDegraded) << "i=" << i;
    EXPECT_EQ(out[i].session, static_cast<std::int64_t>(i));
    EXPECT_EQ(out[i].fine.size(), kFactor);
  }
  for (std::size_t i = 24; i < 32; ++i) {
    EXPECT_EQ(out[i].kind, serve::WindowKind::kRaw) << "i=" << i;
    EXPECT_EQ(out[i].session, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(r.core.stats().shed_queue, 24);
  EXPECT_EQ(r.core.stats().windows_degraded, 24);
  EXPECT_EQ(r.core.stats().windows_raw, 8);
  EXPECT_EQ(r.core.session(0).windows_shed, 1);
  EXPECT_EQ(r.core.session(31).windows_published, 1);
  // The obs mirror matches the in-core stats exactly.
  EXPECT_EQ(reg.counter("serve.shed.queue").value() - shed0, 24);
  EXPECT_EQ(reg.counter("serve.windows.degraded").value() - degraded0, 24);
  EXPECT_EQ(reg.counter("serve.windows.raw").value() - raw0, 8);
  EXPECT_EQ(reg.counter("serve.shed.repair").value() - shed_repair0, 0);
}

TEST(ServeCore, RepairPublishesOneTickBehindRaw) {
  const std::int64_t sessions = 4;
  serve::ServeConfig cfg = small_config(sessions);
  const auto ct = make_telemetry(4, 13, /*seed=*/99);
  Replay r(cfg, ct, 2);
  const auto ready_tick = static_cast<std::int64_t>(kWindowIntervals) - 1;
  for (std::int64_t t = 0; t < 6; ++t) {
    std::vector<serve::PublishedWindow> out;
    r.step(out);
    if (t < ready_tick) {
      EXPECT_TRUE(out.empty()) << "t=" << t;
      continue;
    }
    if (t == ready_tick) {
      // First full windows: raw only — repair is queued, not yet run.
      ASSERT_EQ(out.size(), static_cast<std::size_t>(sessions));
      for (const auto& p : out) {
        EXPECT_EQ(p.kind, serve::WindowKind::kRaw);
        EXPECT_EQ(p.tick, t);
        EXPECT_DOUBLE_EQ(p.latency_seconds, 0.0);  // same-tick publish
      }
      continue;
    }
    // Steady state: last tick's repairs publish first, then this tick's
    // raw windows — the async lane runs exactly one tick behind.
    ASSERT_EQ(out.size(), static_cast<std::size_t>(2 * sessions));
    for (std::int64_t i = 0; i < sessions; ++i) {
      const auto& rep = out[static_cast<std::size_t>(i)];
      EXPECT_EQ(rep.kind, serve::WindowKind::kRepaired);
      EXPECT_EQ(rep.tick, t - 1);
      EXPECT_DOUBLE_EQ(rep.latency_seconds, kIntervalS);
      const auto& raw = out[static_cast<std::size_t>(sessions + i)];
      EXPECT_EQ(raw.kind, serve::WindowKind::kRaw);
      EXPECT_EQ(raw.tick, t);
    }
  }
  std::vector<serve::PublishedWindow> rest;
  r.core.drain(rest);
  ASSERT_EQ(rest.size(), static_cast<std::size_t>(sessions));
  for (const auto& p : rest) {
    EXPECT_EQ(p.kind, serve::WindowKind::kRepaired);
  }
  EXPECT_EQ(r.core.stats().windows_raw, r.core.stats().windows_repaired);
}

TEST(ServeCore, RepairBudgetDropsOldestJobs) {
  const std::int64_t shed_repair0 =
      obs::Registry::global().counter("serve.shed.repair").value();
  const std::int64_t sessions = 8;
  serve::ServeConfig cfg = small_config(sessions);
  cfg.repair_budget = 2;
  const auto ct = make_telemetry(4, 11, /*seed=*/21);
  Replay r(cfg, ct, 2);
  std::vector<serve::PublishedWindow> out;
  for (std::size_t t = 0; t < kWindowIntervals; ++t) r.step(out);
  r.core.drain(out);
  // 8 raw windows queued 8 repair jobs; budget 2 dropped the 6 oldest
  // (sessions 0..5), so only sessions 6 and 7 publish repaired windows.
  EXPECT_EQ(r.core.stats().shed_repair, 6);
  EXPECT_EQ(r.core.stats().windows_repaired, 2);
  std::vector<std::int64_t> repaired_sessions;
  for (const auto& p : out) {
    if (p.kind == serve::WindowKind::kRepaired) {
      repaired_sessions.push_back(p.session);
    }
  }
  EXPECT_EQ(repaired_sessions, (std::vector<std::int64_t>{6, 7}));
  EXPECT_EQ(obs::Registry::global().counter("serve.shed.repair").value() -
                shed_repair0,
            6);
}

// ---- serve.* scenario vocabulary ------------------------------------------

TEST(ServeScenario, KeysRoundTripThroughCanonicalForm) {
  core::Scenario s;
  s.serve.sessions = 1000;
  s.serve.ticks = 77;
  s.serve.interval_ms = 25.0;
  s.serve.max_batch = 32;
  s.serve.max_delay_ticks = 2;
  s.serve.queue_budget = 555;
  s.serve.repair_budget = 11;
  s.serve.repair = false;
  const std::string canon = core::canonical_scenario(s);
  const core::Scenario back = core::parse_scenario_string(canon);
  EXPECT_EQ(core::canonical_scenario(back), canon);
  EXPECT_EQ(back.serve.sessions, 1000);
  EXPECT_EQ(back.serve.ticks, 77);
  EXPECT_DOUBLE_EQ(back.serve.interval_ms, 25.0);
  EXPECT_EQ(back.serve.max_batch, 32);
  EXPECT_EQ(back.serve.max_delay_ticks, 2);
  EXPECT_EQ(back.serve.queue_budget, 555);
  EXPECT_EQ(back.serve.repair_budget, 11);
  EXPECT_FALSE(back.serve.repair);
}

TEST(ServeScenario, SectionHeaderPrefixesServeKeys) {
  const core::Scenario s = core::parse_scenario_string(
      "[serve]\nsessions = 8\nticks = 3\nrepair = 0\n");
  EXPECT_EQ(s.serve.sessions, 8);
  EXPECT_EQ(s.serve.ticks, 3);
  EXPECT_FALSE(s.serve.repair);
  EXPECT_TRUE(s.serve.enabled());
}

TEST(ServeScenario, UnknownSectionsAreRejectedAtTheHeader) {
  // Regression for the silent no-op: an unrecognised *empty* section used
  // to parse successfully because validation only happened per key.
  EXPECT_THROW(core::parse_scenario_string("[serv]\n"), CheckError);
  EXPECT_THROW(core::parse_scenario_string("[bogus]\nkey = 1\n"),
               CheckError);
  EXPECT_THROW(core::parse_scenario_string("[serve ]x[typo]\n"),
               CheckError);
  // Every real option family remains a valid (even empty) section.
  for (const char* ok :
       {"[campaign]\n", "[data]\n", "[model]\n", "[train]\n", "[cem]\n",
        "[eval]\n", "[faults]\n", "[fabric]\n", "[serve]\n"}) {
    EXPECT_NO_THROW(core::parse_scenario_string(ok)) << ok;
  }
}

TEST(ServeScenario, ServeKeysNeverTouchArtifactCacheKeys) {
  // Serving replays an already-trained scenario: flipping server knobs
  // must keep hitting the batch pipeline's campaign/dataset/checkpoint
  // caches.
  core::Scenario plain;
  core::Scenario serving = plain;
  serving.serve.sessions = 1024;
  serving.serve.max_batch = 1;
  serving.serve.repair = false;
  EXPECT_EQ(core::Engine::campaign_key(plain.campaign),
            core::Engine::campaign_key(serving.campaign));
  EXPECT_EQ(core::Engine::dataset_key(plain),
            core::Engine::dataset_key(serving));
  EXPECT_EQ(core::Engine::checkpoint_key(plain, "transformer+kal"),
            core::Engine::checkpoint_key(serving, "transformer+kal"));
}

TEST(ServeScenario, RejectsBadServeValues) {
  core::Scenario s;
  EXPECT_THROW(core::apply_scenario_option(s, "serve.sessions", "-1"),
               CheckError);
  EXPECT_THROW(core::apply_scenario_option(s, "serve.ticks", "0"),
               CheckError);
  EXPECT_THROW(core::apply_scenario_option(s, "serve.interval-ms", "0"),
               CheckError);
  EXPECT_THROW(core::apply_scenario_option(s, "serve.repair", "2"),
               CheckError);
  EXPECT_THROW(core::apply_scenario_option(s, "serve.max-batch", "0"),
               CheckError);
}

}  // namespace
}  // namespace fmnet
