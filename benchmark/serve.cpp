// Serving workloads: the model of scenarios/serve.scn behind
// serve::ServeCore, fed by serve::ReplaySource on the wall clock.
//
//   serve-slo       500 sessions, open loop: tick t is due at t0 + t * 50 ms
//                   whether or not the previous tick finished; each tick's
//                   latency runs from when it was due until tick() returns,
//                   when its raw windows are visible to the caller.
//   serve-saturate  4000 sessions, closed loop: ticks back to back; the
//                   latency of a tick is its duration.
//
// Set-up: simulate, prepare and train the serving model (no artifact
// store), build the server and prime every session's context window.
// Before timing, a virtual-clock replay of 128 sessions x 8 ticks must
// publish the same stream at 1 lane and at every pool lane.
#include <chrono>
#include <cstring>
#include <thread>

#include "core/engine.h"
#include "harness.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "util/clock.h"

namespace fmnet::bench {

namespace {

constexpr int kSetupReps = 5;
constexpr std::int64_t kSloSessions = 500;
constexpr std::int64_t kSaturateSessions = 4000;

struct Model {
  core::Scenario scenario;
  core::PreparedData data;
  std::shared_ptr<impute::Imputer> imputer;
  std::int64_t queues_per_port = 0;

  std::size_t window_intervals() const {
    return scenario.window_ms / scenario.factor;
  }
};

Model train_model(const core::Scenario& s) {
  core::Engine engine{core::ArtifactStore()};
  const core::Campaign campaign = engine.campaign(s.campaign);
  Model m;
  m.scenario = s;
  m.data = engine.prepare(s, campaign);
  m.imputer = engine
                  .fit_method(s, impute::Registry::base_method(s.methods.front()),
                              m.data)
                  .imputer;
  m.queues_per_port = campaign.switch_config.queues_per_port;
  return m;
}

std::unique_ptr<serve::ServeCore> make_server(
    const Model& m, const serve::ServeConfig& cfg,
    std::shared_ptr<impute::Imputer> imputer, const util::Clock* clock,
    util::ThreadPool* pool) {
  return std::make_unique<serve::ServeCore>(
      cfg, std::move(imputer), m.window_intervals(), m.scenario.factor,
      m.data.dataset_config.qlen_scale, m.data.dataset_config.count_scale,
      m.scenario.cem, clock, pool);
}

std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Hash of the stream published by a virtual-clock replay on `pool`.
std::uint64_t replay_hash(const Model& m, util::ThreadPool& pool) {
  serve::ServeConfig cfg = m.scenario.serve;
  cfg.sessions = 128;
  util::VirtualClock clock;
  const auto server = make_server(m, cfg, m.imputer, &clock, &pool);
  const serve::ReplaySource source(m.data.coarse, m.queues_per_port,
                                   cfg.sessions);
  std::vector<impute::CoarseIntervalUpdate> updates;
  std::vector<serve::PublishedWindow> out;
  for (std::int64_t t = 0; t < 8; ++t) {
    source.fill(t, updates);
    server->tick(updates, out);
    clock.advance(cfg.interval_ms * 1e-3);
  }
  server->drain(out);
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& p : out) {
    h = fnv64(h, static_cast<std::uint64_t>(p.session));
    h = fnv64(h, static_cast<std::uint64_t>(p.tick));
    h = fnv64(h, static_cast<std::uint64_t>(p.kind));
    for (const double v : p.fine) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h = fnv64(h, bits);
    }
  }
  return h;
}

/// A server ready to time: sessions primed so the next tick publishes one
/// window per session.
struct Server {
  std::unique_ptr<serve::ServeCore> core;
  std::int64_t next_tick = 0;
};

Server primed_server(const Model& m, const serve::ServeConfig& cfg,
                     std::shared_ptr<impute::Imputer> imputer,
                     const serve::ReplaySource& source) {
  Server s{make_server(m, cfg, std::move(imputer), nullptr, nullptr), 0};
  std::vector<impute::CoarseIntervalUpdate> updates;
  std::vector<serve::PublishedWindow> out;
  for (; s.next_tick + 1 < static_cast<std::int64_t>(m.window_intervals());
       ++s.next_tick) {
    source.fill(s.next_tick, updates);
    s.core->tick(updates, out);
  }
  return s;
}

struct Phase {
  std::vector<double> latency_s;  // per tick: due -> tick() returned
  std::vector<double> busy_s;     // per tick: start -> tick() returned
  std::vector<double> late_frac;  // open loop: start - due, per interval
  std::int64_t ticks = 0;
  double elapsed_s = 0.0;
};

/// Drives `server` for `seconds`, open or closed loop.
Phase drive(Server& server, const serve::ReplaySource& source,
            double interval_s, bool open_loop, double seconds) {
  using Clock = std::chrono::steady_clock;
  Phase p;
  std::vector<impute::CoarseIntervalUpdate> updates;
  std::vector<serve::PublishedWindow> out;
  const Clock::time_point t0 = Clock::now();
  const auto since_t0 = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  for (;; ++p.ticks) {
    source.fill(server.next_tick, updates);
    Clock::time_point due = Clock::now();
    if (open_loop) {
      due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         interval_s * static_cast<double>(p.ticks)));
      if (since_t0(due) >= seconds) break;
      std::this_thread::sleep_until(due);
    } else if (since_t0(due) >= seconds) {
      break;
    }
    const Clock::time_point start = Clock::now();
    server.core->tick(updates, out);
    ++server.next_tick;
    const Clock::time_point done = Clock::now();
    out.clear();
    p.latency_s.push_back(std::chrono::duration<double>(done - due).count());
    p.busy_s.push_back(std::chrono::duration<double>(done - start).count());
    if (open_loop) {
      p.late_frac.push_back(
          std::chrono::duration<double>(start - due).count() / interval_s);
    }
    p.elapsed_s = since_t0(done);
  }
  return p;
}

}  // namespace

void run_serve(const Options& opt, bool open_loop, Result& result) {
  core::Scenario s =
      core::load_scenario_file(opt.scenario_dir + "/serve.scn");
  s.campaign.seed = opt.seed;
  serve::ServeConfig cfg = s.serve;
  cfg.sessions = open_loop ? kSloSessions : kSaturateSessions;
  // Every tick drains the ready queue and the repair queue, so budgets of
  // twice the session count never shed: no operation fails by design.
  cfg.queue_budget = 2 * cfg.sessions;
  cfg.repair_budget = 2 * cfg.sessions;
  const double interval_s = cfg.interval_ms * 1e-3;

  // ---- set-up ----
  std::vector<double> setup_s;
  Model model;
  std::unique_ptr<serve::ReplaySource> source;
  Server server;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    // The source reads model.data by reference: drop the previous rep's
    // server and source before the model they point into is replaced.
    server = Server{};
    source.reset();
    const double t0 = now_s();
    model = train_model(s);
    source = std::make_unique<serve::ReplaySource>(
        model.data.coarse, model.queues_per_port, cfg.sessions);
    server = primed_server(model, cfg, model.imputer, *source);
    setup_s.push_back(now_s() - t0);
  }
  {
    util::ThreadPool one_lane(1);
    result.gate("lane_invariant_stream",
                replay_hash(model, one_lane) ==
                    replay_hash(model, util::ThreadPool::global()));
  }

  // After a phase: every offered window was published raw (none degraded)
  // and, once drained, repaired (no repair dropped).
  const auto check = [&](Server& checked, std::int64_t ticks) {
    std::vector<serve::PublishedWindow> rest;
    checked.core->drain(rest);
    const serve::ServeStats& st = checked.core->stats();
    const std::int64_t offered = cfg.sessions * ticks;
    result.attempted += offered;
    result.failed += st.windows_degraded + st.shed_repair;
    result.gate("offered_equals_published",
                st.windows_raw + st.windows_degraded == offered);
    result.gate("every_window_repaired",
                st.windows_repaired == st.windows_raw - st.shed_repair);
  };

  // ---- timed ticks ----
  // A traced run splits the time: untraced on the set-up server, then
  // traced on a fresh server whose model is wrapped in TimedImputer.
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase phase =
      drive(server, *source, interval_s, open_loop, untraced_s);
  const double windows_per_s =
      static_cast<double>(server.core->stats().windows_raw) / phase.elapsed_s;
  check(server, phase.ticks);
  result.notes["ticks"] = std::to_string(phase.ticks);
  result.notes["sessions"] = std::to_string(cfg.sessions);
  result.notes["setup_reps"] = std::to_string(setup_s.size());

  if (opt.trace) {
    auto timed = std::make_shared<TimedImputer>(model.imputer);
    Server traced = primed_server(model, cfg, timed, *source);
    obs::set_enabled(true);
    const Snapshot before = Snapshot::take();
    const Phase tp = drive(traced, *source, interval_s, open_loop,
                           opt.seconds - untraced_s);
    LayerTimes layers;
    layers.delta = Snapshot::take().minus(before);
    obs::set_enabled(false);
    for (const double b : tp.busy_s) layers.wall += b;
    layers.lane_wall = tp.elapsed_s;
    layers.forward = timed->seconds();
    layers.forward_windows = timed->windows();
    layers.forward_batches = timed->batches();
    layers.generator_late_frac = tp.late_frac;
    layers.traced_op_s = tp.busy_s;
    layers.untraced_op_s = phase.busy_s;
    add_layer_metrics(layers, result);
    check(traced, tp.ticks);
    return;
  }
  result.add("setup_s", median(setup_s), "s");
  add_latency_metrics(phase.latency_s, result);
  result.notes["windows_per_s"] = std::to_string(windows_per_s);
  result.add("max_rss_mb", max_rss_mb(), "MB");
}

}  // namespace fmnet::bench
