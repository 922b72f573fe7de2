// The serving core: a long-running imputation server over N concurrent
// single-queue sessions (impute::WindowBuffer + serve::Session) — the
// repo's one online imputation path — with the three serving layers the
// batch path never needed:
//
//  * batching — every window a tick releases, from all sessions, goes
//    through one Imputer::impute_batch call, which the model imputer
//    spreads over the pool in one region. Each window's example asks for
//    its newest interval alone (ImputationExample::output_from), the one
//    interval published: the transformer runs every row through keys and
//    values but forms queries for that interval only, and the output of
//    each window is its publication. Windows are released in whole
//    max_batch groups, plus the partial rest once it has waited
//    max_delay_ticks; outputs are bit-identical to imputing each session
//    alone, whatever the grouping, and to the tail of imputing the same
//    window offline.
//  * async repair — CEM repair runs *behind* the prediction path: raw
//    predictions publish immediately (they carry the latency SLO), repair
//    jobs execute on the pool one tick later and publish a corrected
//    window when done, bounded by a repair budget. A job is the stateless
//    window repair of one published interval (impute::PacketInterval).
//  * admission/shedding — when the ready-queue exceeds its budget the
//    oldest windows are shed to a degraded linear-interpolation fallback
//    (a prediction is still published — sessions never starve — but it is
//    marked kDegraded and counted in serve.shed.queue).
//
// Determinism contract (same as the rest of the repo): published windows
// are a pure function of (config, model weights, update schedule, clock
// readings) — never of lane count. Ingest shards are a pure function of
// the session count, and each lists its ready windows in session order;
// appending the lists in shard order keeps the ready queue in session
// order. Repair jobs execute via deterministic parallel_map. Under a
// VirtualClock the latencies themselves are deterministic too.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "impute/cem.h"
#include "impute/imputer.h"
#include "obs/metrics.h"
#include "serve/config.h"
#include "serve/session.h"
#include "telemetry/monitors.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace fmnet::serve {

/// Which path produced a published window.
enum class WindowKind : std::uint8_t {
  kRaw,       // model prediction straight off the batched path
  kRepaired,  // async CEM repair of an earlier raw publication
  kDegraded,  // shed from the ready-queue; linear-interpolation fallback
};

/// One published imputation of a session's newest interval.
struct PublishedWindow {
  std::int64_t session = 0;
  /// Tick at which the window became ready (arrival tick).
  std::int64_t tick = 0;
  WindowKind kind = WindowKind::kRaw;
  /// Fine-grained queue lengths of the newest interval (factor values,
  /// packets).
  std::vector<double> fine;
  /// Publish time minus arrival time on the injected clock. Under a
  /// VirtualClock advanced once per tick this is tick-quantised and
  /// deterministic.
  double latency_seconds = 0.0;
};

/// Aggregate serving counters; mirrored into obs as serve.* instruments.
struct ServeStats {
  std::int64_t windows_raw = 0;
  std::int64_t windows_repaired = 0;
  std::int64_t windows_degraded = 0;
  std::int64_t shed_queue = 0;   // ready windows shed to the fallback
  std::int64_t shed_repair = 0;  // repair jobs dropped over budget
  std::int64_t batches = 0;      // impute_batch calls: one per releasing tick
};

class ServeCore {
 public:
  /// `model` is the shared imputer (read-only at serve time); the window
  /// geometry/scales mirror impute::WindowBuffer. `clock`/`pool` follow
  /// the repo-wide conventions (null = wall clock / global pool).
  ServeCore(const ServeConfig& config,
            std::shared_ptr<impute::Imputer> model,
            std::size_t window_intervals, std::size_t factor,
            double qlen_scale, double count_scale,
            impute::CemConfig cem = {}, const util::Clock* clock = nullptr,
            util::ThreadPool* pool = nullptr);

  /// Advances the server by one tick: executes repair jobs queued on
  /// earlier ticks, ingests one coarse interval per session
  /// (updates[i] -> session i; size must equal sessions), applies
  /// admission control, and publishes batched raw predictions. Published
  /// windows are appended to `out`.
  void tick(const std::vector<impute::CoarseIntervalUpdate>& updates,
            std::vector<PublishedWindow>& out);

  /// Flushes everything still pending (held-back windows + queued repair
  /// jobs) — call once after the last tick.
  void drain(std::vector<PublishedWindow>& out);

  const ServeStats& stats() const { return stats_; }
  std::int64_t ticks_seen() const { return tick_; }
  const Session& session(std::int64_t i) const {
    return sessions_[static_cast<std::size_t>(i)];
  }

 private:
  /// A full context window waiting for the forward; its example sits at
  /// the same index of ready_examples_.
  struct ReadyWindow {
    std::int64_t session = 0;
    std::int64_t tick = 0;
    double arrival = 0.0;
  };
  /// A published raw window waiting for async CEM repair.
  struct RepairJob {
    std::int64_t session = 0;
    std::int64_t tick = 0;
    double arrival = 0.0;
    std::vector<double> raw;  // newest interval, packets
    impute::PacketInterval interval;
  };

  void ingest(const std::vector<impute::CoarseIntervalUpdate>& updates);
  void shed_over_budget(std::vector<PublishedWindow>& out);
  void flush_batches(bool force, std::vector<PublishedWindow>& out);
  void run_repairs(std::vector<PublishedWindow>& out);

  ServeConfig config_;
  std::shared_ptr<impute::Imputer> model_;
  std::shared_ptr<impute::Imputer> fallback_;  // linear interpolation
  std::size_t factor_;
  double qlen_scale_;
  impute::ConstraintEnforcementModule cem_;
  const util::Clock* clock_;
  util::ThreadPool* pool_;

  std::vector<Session> sessions_;
  // The ready queue, oldest first, in two parallel vectors: the examples
  // are the very vector the forward takes.
  std::vector<ReadyWindow> ready_;
  std::vector<impute::ImputationExample> ready_examples_;
  std::deque<RepairJob> repairs_;
  std::int64_t tick_ = 0;
  ServeStats stats_;

  // obs instruments, resolved once at construction (a core built after
  // Registry::reset_for_testing sees fresh instruments).
  obs::Counter& obs_raw_;
  obs::Counter& obs_repaired_;
  obs::Counter& obs_degraded_;
  obs::Counter& obs_shed_queue_;
  obs::Counter& obs_shed_repair_;
  obs::Counter& obs_batches_;
  obs::Gauge& obs_queue_depth_;
  obs::Percentiles& obs_latency_raw_;
  obs::Percentiles& obs_latency_repair_;
};

/// Deterministic replay source: drives N sessions from recorded coarse
/// telemetry. Session i replays queue (i mod num_queues) with a
/// deterministic per-session phase offset, wrapping modulo the recording
/// length — so any session count can be driven from a small recording and
/// the update schedule is a pure function of (telemetry, sessions, tick).
/// The telemetry must outlive the source.
class ReplaySource {
 public:
  ReplaySource(const telemetry::CoarseTelemetry& coarse,
               std::int64_t queues_per_port, std::int64_t sessions);

  /// Fills updates[i] with session i's interval for `tick`. Resizes
  /// `updates` to the session count.
  void fill(std::int64_t tick,
            std::vector<impute::CoarseIntervalUpdate>& updates) const;

 private:
  const telemetry::CoarseTelemetry& coarse_;
  std::int64_t queues_per_port_;
  std::int64_t sessions_;
  std::int64_t num_queues_;
  std::int64_t num_intervals_;
};

}  // namespace fmnet::serve
