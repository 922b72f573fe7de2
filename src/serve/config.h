// Serving-core configuration — pure data, includable from src/core's
// scenario vocabulary without dragging in the server itself.
#pragma once

#include <cstdint>

namespace fmnet::serve {

/// Configuration of the long-running imputation server (src/serve). All
/// budgets are counts of windows; time is expressed in replay ticks (one
/// tick = one coarse interval = `interval_ms`).
struct ServeConfig {
  /// Concurrent single-queue sessions. 0 = serving disabled (the default:
  /// batch scenarios never start a server).
  std::int64_t sessions = 0;
  /// Replay ticks to drive (each tick feeds one interval per session).
  std::int64_t ticks = 200;
  /// The real-time budget per tick — the paper's coarse interval.
  double interval_ms = 50.0;
  /// Cross-session batching: ready windows are released in whole groups
  /// of this many, all of a tick's in one impute_batch call. It sizes the
  /// groups, not the call.
  std::int64_t max_batch = 64;
  /// How many ticks the partial rest (fewer than max_batch windows) may
  /// wait for its group to fill before it is released anyway. 0 = release
  /// every tick (lowest latency).
  std::int64_t max_delay_ticks = 0;
  /// Admission control: when more ready windows than this are pending,
  /// the oldest are shed to the degraded linear-interpolation path.
  std::int64_t queue_budget = 4096;
  /// Bound on queued async repair jobs; beyond it the oldest jobs are
  /// dropped (their raw predictions stand).
  std::int64_t repair_budget = 1024;
  /// Run CEM repair behind the prediction path.
  bool repair = true;

  bool enabled() const { return sessions > 0; }
};

}  // namespace fmnet::serve
