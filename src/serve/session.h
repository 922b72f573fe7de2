// Per-session serving state (NFOS-style shared-state discipline): every
// Session is owned by exactly one ingest shard per tick, so the hot path
// mutates it without locks, while the imputer model itself is shared —
// read-only at inference time — across all sessions.
#pragma once

#include <cstdint>

#include "impute/window_buffer.h"

namespace fmnet::serve {

/// State of one long-lived single-queue imputation session. Holds no
/// model and no repair state: window buffering and the window's example
/// only, so N sessions cost N small buffers and one shared model. Each repair job covers exactly one
/// published interval and runs the stateless CEM window repair.
struct Session {
  Session(std::int64_t session_id, std::size_t window_intervals,
          std::size_t factor, double qlen_scale, double count_scale)
      : id(session_id),
        window(window_intervals, factor, qlen_scale, count_scale) {}

  std::int64_t id;
  impute::WindowBuffer window;
  /// The session's window example, refilled in place by each ingest that
  /// readies a window and moved into the ready queue; publishing or
  /// shedding the window moves it back. So its memory is allocated on the
  /// session's first window and reused by every later one.
  impute::ImputationExample example;
  std::int64_t windows_published = 0;
  std::int64_t windows_shed = 0;
};

}  // namespace fmnet::serve
