// Streaming telemetry imputation — the paper's §5 real-time research
// question ("some tasks such as performance-driven routing, rate
// adaptation, and attack detection drive real-time network activation and
// are hence subject to strict timing constraints").
//
// StreamingImputer turns any batch Imputer into an online one: coarse
// intervals arrive one at a time; once a full context window is buffered,
// each new interval is imputed immediately using the trailing window, and
// the per-interval processing latency is recorded. The real-time budget is
// one coarse interval (50 ms): if imputation of an interval takes longer
// than the interval itself, the system cannot keep up.
//
// The window-buffering/example-construction state lives in WindowBuffer so
// the serving core (src/serve) can hold one buffer per session while
// sharing a single imputer model across all of them — serve::ServeCore
// also owns cross-session batching. StreamingImputer is the thin
// single-session wrapper over it that owns a model; the conformance suite
// pins streaming ≡ offline through it.
#pragma once

#include <deque>
#include <memory>

#include "impute/imputer.h"
#include "util/clock.h"

namespace fmnet::impute {

/// One interval's worth of coarse telemetry for a single queue.
struct CoarseIntervalUpdate {
  double periodic_qlen = 0.0;  // packets
  double max_qlen = 0.0;       // packets
  double port_sent = 0.0;      // packets
  double port_dropped = 0.0;   // packets
};

/// Output for the newest interval once the context window is full.
struct StreamingOutput {
  bool ready = false;
  /// Fine-grained queue lengths of the *newest* interval (factor values,
  /// packets).
  std::vector<double> fine;
  /// Seconds spent producing it, as read from the injected clock (wall
  /// clock by default; a VirtualClock under deterministic replay).
  double latency_seconds = 0.0;
};

/// Per-session window state: buffers the trailing context window of coarse
/// intervals and builds the ImputationExample the model consumes. Holds no
/// model — one imputer can serve any number of WindowBuffers. Example
/// construction is a pure function of the buffered window and the scales,
/// shared by every streaming/serving mode so they all feed the model
/// identical features.
class WindowBuffer {
 public:
  /// `window_intervals` is the model's context length in coarse intervals
  /// (e.g. 6 for the paper's 300 ms window at 50 ms telemetry).
  WindowBuffer(std::size_t window_intervals, std::size_t factor,
               double qlen_scale, double count_scale);

  /// Buffers the next coarse interval (evicting the oldest once full) and
  /// returns whether a full context window is now available.
  bool push(const CoarseIntervalUpdate& update);

  /// True once window_intervals updates have been buffered.
  bool ready() const { return window_.size() == window_intervals_; }

  /// The trailing-window example. Requires ready().
  ImputationExample make_example() const;

  std::size_t intervals_seen() const { return intervals_seen_; }
  std::size_t window_intervals() const { return window_intervals_; }
  std::size_t factor() const { return factor_; }
  double qlen_scale() const { return qlen_scale_; }
  double count_scale() const { return count_scale_; }

 private:
  std::size_t window_intervals_;
  std::size_t factor_;
  double qlen_scale_;
  double count_scale_;
  std::deque<CoarseIntervalUpdate> window_;
  std::size_t intervals_seen_ = 0;
};

class StreamingImputer {
 public:
  /// `clock` follows the util::Clock convention: null = wall clock. It is
  /// only read to stamp StreamingOutput::latency_seconds.
  StreamingImputer(std::shared_ptr<Imputer> base,
                   std::size_t window_intervals, std::size_t factor,
                   double qlen_scale, double count_scale,
                   const util::Clock* clock = nullptr);

  /// Feeds the next coarse interval; returns the imputed newest interval
  /// once enough context has accumulated (ready == false before that).
  StreamingOutput push(const CoarseIntervalUpdate& update);

  /// Number of intervals consumed so far.
  std::size_t intervals_seen() const { return buffer_.intervals_seen(); }

 private:
  std::shared_ptr<Imputer> base_;
  WindowBuffer buffer_;
  const util::Clock* clock_;
};

}  // namespace fmnet::impute
