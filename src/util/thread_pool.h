// Shared thread pool for the embarrassingly parallel pipeline stages
// (campaign sharding, CEM window repair, data-parallel training).
//
// Design rules that keep every FMNet output bit-for-bit reproducible at any
// thread count:
//
//  * The *decomposition* of work into tasks is always a pure function of the
//    problem size (never of the thread count): callers iterate a fixed index
//    space [begin, end) and write results into pre-sized slots.
//  * Reductions are performed by the caller, in index order, after the
//    parallel region completes ("sharded reduce"): floating-point sums are
//    therefore evaluated in the same order whether 1 or 64 threads ran.
//  * Any per-task randomness must come from a per-index Rng stream (see
//    derive_stream_seed in util/rng.h), never from a shared generator.
//
// The pool size is FMNET_THREADS when set (>=1), otherwise the hardware
// concurrency. A pool of size 1 executes inline with zero thread overhead,
// so FMNET_THREADS=1 recovers the exact single-threaded execution path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fmnet::util {

/// Per-lane utilisation snapshot (see ThreadPool::lane_stats()). All
/// fields are cumulative since pool construction (or the last
/// reset_lane_stats()).
struct LaneStatsSnapshot {
  /// parallel_for indices executed while holding this lane id.
  std::int64_t tasks = 0;
  /// Parallel regions this lane participated in: every region for lane 0
  /// (the caller), the regions it executed an index of for a helper lane.
  std::int64_t regions = 0;
  /// Seconds this slot's thread spent inside regions: lane 0 is the
  /// calling thread, lane k >= 1 is worker k. Each thread counts only the
  /// outermost region it is in, so nested regions are never counted twice
  /// and the lanes' sum never exceeds size() x wall time.
  double busy_s = 0.0;
  /// Lane 0: caller wait for straggler lanes at the end of its outermost
  /// regions. Lanes >= 1: worker time blocked on the task queue
  /// ("steal/idle" time).
  double idle_s = 0.0;
};

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total lanes of parallelism (the
  /// calling thread participates, so num_threads-1 workers are spawned).
  /// num_threads == 1 means fully inline execution.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel lanes (including the calling thread). Always >= 1.
  std::size_t size() const { return num_threads_; }

  /// Runs body(i) for every i in [begin, end) and blocks until all calls
  /// return. Indices are claimed dynamically, so the assignment of index to
  /// thread is nondeterministic — bodies must write only to per-index state.
  /// The first exception thrown by any body is rethrown on the caller.
  ///
  /// Nesting: a call from inside a body neither deadlocks nor
  /// oversubscribes. The nested caller participates as an inner lane and
  /// drains its own region's indices, so it never waits on a queue slot;
  /// workers that are idle at that moment are recruited as extra inner
  /// lanes, and busy workers are left alone — the OS thread count never
  /// exceeds size(). With every worker busy the nested region simply runs
  /// inline on the caller. Which threads help only moves indices between
  /// lanes, so results stay bit-identical at any lane count.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& body);

  /// As parallel_for, but the body also receives a lane id in
  /// [0, min(size(), end - begin)) that is exclusive for the duration of
  /// each call — use it to index per-lane scratch state (e.g. model
  /// replicas), sized by that bound. Exclusivity is per region: two
  /// concurrently-running nested regions may each hand out the same lane
  /// id, so lane-indexed scratch must belong to the region (allocated per
  /// call), never to the pool. Lane->index assignment is
  /// nondeterministic; determinism must come from per-index results, not
  /// from which lane computed them.
  void parallel_for_lane(
      std::int64_t begin, std::int64_t end,
      const std::function<void(std::size_t lane, std::int64_t i)>& body);

  /// Process-wide pool sized by configured_threads(). Created on first use.
  static ThreadPool& global();

  /// FMNET_THREADS when set to a positive integer, else
  /// std::thread::hardware_concurrency() (>= 1).
  static std::size_t configured_threads();

  /// `pool` if non-null, else the global pool — the convention every
  /// pipeline API that accepts an optional pool uses.
  static ThreadPool& resolve(ThreadPool* pool) {
    return pool != nullptr ? *pool : global();
  }

  /// Cumulative per-lane utilisation telemetry, one entry per lane.
  /// Counters are advanced with relaxed atomics, a few adds per lane per
  /// region, and the clock is read only around each thread's outermost
  /// region, so the cost is negligible against any real region body.
  /// Telemetry is a pure observer: it never influences scheduling, so
  /// outputs stay bit-identical with or without readers.
  std::vector<LaneStatsSnapshot> lane_stats() const;
  void reset_lane_stats();

 private:
  struct ForState;
  struct alignas(64) LaneCounters {
    std::atomic<std::int64_t> tasks{0};
    std::atomic<std::int64_t> regions{0};
    std::atomic<std::int64_t> busy_ns{0};
    std::atomic<std::int64_t> idle_ns{0};
  };

  void worker_loop(std::size_t worker_index);

  std::size_t num_threads_;
  std::unique_ptr<LaneCounters[]> lane_counters_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  /// Workers currently blocked on the task queue — the advisory budget a
  /// nested parallel region may recruit without oversubscribing (see
  /// parallel_for_lane in the .cpp).
  std::atomic<std::int64_t> idle_workers_{0};
};

/// Runs fn(i) for i in [0, n), collecting the returned values in index
/// order. The canonical deterministic map step: reduce the returned vector
/// sequentially for a thread-count-independent result.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::int64_t n, Fn&& fn) {
  std::vector<T> out(static_cast<std::size_t>(n));
  pool.parallel_for(0, n, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = fn(i);
  });
  return out;
}

}  // namespace fmnet::util
