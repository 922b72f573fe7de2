// Per-session window state for online imputation (paper §5's real-time
// question): coarse intervals arrive one at a time, and once a full
// context window is buffered each new interval is imputed from the
// trailing window. serve::ServeCore holds one WindowBuffer per session and
// shares a single imputer model across all of them.
#pragma once

#include <vector>

#include "impute/imputer.h"

namespace fmnet::impute {

/// One interval's worth of coarse telemetry for a single queue.
using telemetry::CoarseIntervalUpdate;

/// Buffers the trailing context window of coarse intervals and builds the
/// ImputationExample the model consumes through telemetry::build_example —
/// the builder the offline dataset uses, so online and offline examples of
/// the same intervals are identical but for output_from. Holds no model:
/// one imputer can serve any number of WindowBuffers.
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

  /// The trailing-window example, with output_from = window − factor: an
  /// imputer returns only the newest interval's factor steps, and the
  /// older intervals are its context. Requires ready().
  ImputationExample make_example() const;

  /// make_example() into `ex` in place, reusing its vectors' capacity.
  void fill_example(ImputationExample& ex) const;

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
  std::vector<CoarseIntervalUpdate> window_;  // oldest first
  std::size_t intervals_seen_ = 0;
};

}  // namespace fmnet::impute
