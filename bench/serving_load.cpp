// Serving-core load bench (paper §5 real-time direction, PR-9): drives
// serve::ServeCore with N concurrent sessions replayed from a recorded
// campaign and answers the two questions that matter for a long-running
// imputation server:
//
//  1. determinism gate — the published stream (every session/tick/kind and
//     every fine-grained bit) must be identical at 1 lane and at 8 lanes
//     under a virtual clock. Divergence exits non-zero; CI treats it as a
//     hard failure, not a perf regression.
//  2. wall-clock load — how many windows/second the server sustains, the
//     p50/p99 ready-to-publish latency against the 50 ms interval budget,
//     and whether admission control had to shed anything at the nominal
//     session count.
//
// Knobs: FMNET_SERVE_SESSIONS (default 1000; FMNET_FAST shrinks training
// and tick count but NOT the session count — the 1000-session claim is the
// point), FMNET_SERVE_TICKS.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "impute/registry.h"
#include "serve/serve.h"
#include "util/clock.h"
#include "util/stats.h"
#include "util/table.h"

using namespace fmnet;

namespace {

std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_published(const std::vector<serve::PublishedWindow>& ws) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& w : ws) {
    h = fnv64(h, static_cast<std::uint64_t>(w.session));
    h = fnv64(h, static_cast<std::uint64_t>(w.tick));
    h = fnv64(h, static_cast<std::uint64_t>(w.kind));
    for (const double v : w.fine) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h = fnv64(h, bits);
    }
  }
  return h;
}

/// One full virtual-clock replay on a dedicated pool; returns the hash of
/// the published stream.
std::uint64_t replay_hash(const serve::ServeConfig& cfg,
                          const std::shared_ptr<impute::Imputer>& model,
                          std::size_t window_intervals,
                          const core::PreparedData& data,
                          std::int64_t queues_per_port, std::size_t lanes) {
  util::ThreadPool pool(lanes);
  util::VirtualClock clock;
  serve::ServeCore core(cfg, model, window_intervals,
                        data.dataset_config.factor,
                        data.dataset_config.qlen_scale,
                        data.dataset_config.count_scale, impute::CemConfig{},
                        &clock, &pool);
  serve::ReplaySource source(data.coarse, queues_per_port, cfg.sessions);
  std::vector<impute::CoarseIntervalUpdate> updates;
  std::vector<serve::PublishedWindow> out;
  for (std::int64_t t = 0; t < cfg.ticks; ++t) {
    source.fill(t, updates);
    core.tick(updates, out);
    clock.advance(cfg.interval_ms * 1e-3);
  }
  core.drain(out);
  return hash_published(out);
}

}  // namespace

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header(
      "Serving core load: concurrent sessions vs the 50 ms interval budget");

  // Serving-tuned compact model: a single-interval context window
  // (attention is quadratic in window length) and a narrow transformer.
  // Serving trades a little imputation capacity for the throughput needed
  // to clear 1000 sessions inside one coarse interval on a single core;
  // the batch pipeline keeps the full-size model.
  core::Scenario s = bench::default_scenario(42, 5'000);
  s.window_ms = bench::env_int("FMNET_SERVE_WINDOW_MS", 50);
  s.model.d_model = 8;
  s.model.num_heads = 1;
  s.model.num_layers = 1;
  s.model.d_ff = 16;

  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, campaign);
  const auto built = engine.fit_method(s, "transformer+kal", data);

  const std::size_t window_intervals = s.window_ms / s.factor;
  const auto queues_per_port = campaign.switch_config.queues_per_port;

  // ---- phase 1: lane-count determinism gate (virtual clock) -------------
  serve::ServeConfig det;
  det.sessions = 128;
  det.ticks = 8;
  const std::uint64_t h1 = replay_hash(det, built.imputer, window_intervals,
                                       data, queues_per_port, 1);
  const std::uint64_t h8 = replay_hash(det, built.imputer, window_intervals,
                                       data, queues_per_port, 8);
  std::printf("determinism gate — published stream hash, 1 lane vs 8 "
              "lanes: %016llx vs %016llx: %s\n",
              static_cast<unsigned long long>(h1),
              static_cast<unsigned long long>(h8),
              h1 == h8 ? "PASS" : "FAIL");
  if (h1 != h8) {
    std::fprintf(stderr,
                 "serving_load: published stream diverged across lane "
                 "counts — determinism contract broken\n");
    return 1;
  }

  // ---- phase 2: wall-clock load -----------------------------------------
  serve::ServeConfig load;
  load.sessions = bench::env_int("FMNET_SERVE_SESSIONS", 1000);
  load.ticks = bench::env_int("FMNET_SERVE_TICKS", fast_mode() ? 12 : 60);
  serve::ServeCore core(load, built.imputer, window_intervals,
                        data.dataset_config.factor,
                        data.dataset_config.qlen_scale,
                        data.dataset_config.count_scale);
  serve::ReplaySource source(data.coarse, queues_per_port, load.sessions);
  std::vector<impute::CoarseIntervalUpdate> updates;
  std::vector<serve::PublishedWindow> out;
  const util::Clock& clk = util::Clock::wall();
  const double t0 = clk.now();
  for (std::int64_t t = 0; t < load.ticks; ++t) {
    source.fill(t, updates);
    core.tick(updates, out);
  }
  core.drain(out);
  const double elapsed = clk.now() - t0;

  std::vector<double> raw_ms;
  for (const auto& w : out) {
    if (w.kind == serve::WindowKind::kRaw) {
      raw_ms.push_back(w.latency_seconds * 1e3);
    }
  }
  const auto& st = core.stats();
  const double win_per_s =
      elapsed > 0 ? static_cast<double>(st.windows_raw) / elapsed : 0.0;
  const double repair_win_per_s =
      elapsed > 0 ? static_cast<double>(st.windows_repaired) / elapsed : 0.0;
  const std::int64_t offered = st.windows_raw + st.windows_degraded;
  const double shed_rate =
      offered > 0
          ? static_cast<double>(st.shed_queue) / static_cast<double>(offered)
          : 0.0;
  const double p50 = percentile(raw_ms, 50);
  const double p99 = percentile(raw_ms, 99);

  auto& reg = obs::Registry::global();
  // Cores of the recording machine: the forward fans out over the pool, so
  // a baseline's throughput keys are only comparable at a similar count.
  reg.gauge("bench.serving.cores")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  reg.gauge("bench.serve.sessions").set(static_cast<double>(load.sessions));
  reg.gauge("bench.serve.win_per_s").set_max(win_per_s);
  reg.gauge("bench.serve.repair.win_per_s").set_max(repair_win_per_s);
  reg.gauge("bench.serve.p50_ms").set(p50);
  reg.gauge("bench.serve.p99_ms").set(p99);
  reg.gauge("bench.serve.shed_rate").set(shed_rate);

  Table table({"metric", "value"});
  table.add_row({"sessions", std::to_string(load.sessions)});
  table.add_row({"ticks", std::to_string(load.ticks)});
  table.add_row({"raw windows", std::to_string(st.windows_raw)});
  table.add_row({"repaired windows", std::to_string(st.windows_repaired)});
  table.add_row({"degraded windows", std::to_string(st.windows_degraded)});
  table.add_row({"batches", std::to_string(st.batches)});
  table.add_row({"raw windows/s", Table::fmt(win_per_s)});
  table.add_row({"repaired windows/s", Table::fmt(repair_win_per_s)});
  table.add_row({"p50 raw latency (ms)", Table::fmt(p50)});
  table.add_row({"p99 raw latency (ms)", Table::fmt(p99)});
  table.add_row({"shed rate", Table::fmt(shed_rate)});
  table.print(std::cout);

  const double budget_ms = load.interval_ms;
  std::printf(
      "\nshape check — p99 ready-to-publish latency %.2f ms fits the %.0f "
      "ms interval budget at %lld sessions: %s\n",
      p99, budget_ms, static_cast<long long>(load.sessions),
      p99 < budget_ms ? "PASS" : "FAIL");
  std::printf(
      "shape check — admission control shed nothing at the nominal load "
      "(shed rate %.4f): %s\n",
      shed_rate, shed_rate == 0.0 ? "PASS" : "FAIL");
  return 0;
}
