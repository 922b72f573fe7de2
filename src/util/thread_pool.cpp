#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

namespace fmnet::util {

namespace {
// True while the current thread is executing inside a parallel region.
// Nested regions detect this and switch to the caller-participating inner
// path: the nested caller drains its own indices (so it can never block on
// a queue slot held by its own region — no deadlock), and only *idle*
// workers are recruited as helper lanes (no oversubscription: the OS
// thread count never exceeds the pool size). Lane ids stay exclusive
// within each region, which is all the parallel_for_lane contract
// promises — per-lane scratch is per-region state.
thread_local bool t_in_pool_task = false;

// The pool slot of the current worker thread (its index in the pool that
// spawned it). Busy and idle time are recorded per thread, under this
// slot, and only for the outermost region the thread is in: a worker's
// helper task, or an outside caller's top-level region (slot 0). Nested
// regions add no time of their own — the enclosing interval already
// covers them — so no lane's time is counted twice.
thread_local std::size_t t_worker_slot = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

// Shared state of one parallel_for region. Lifetime: owned by shared_ptr
// copies in every queued helper task, so a task that only starts after the
// caller returned (possible when another lane drained all indices first)
// still touches valid memory; it then claims an index >= end and exits
// without dereferencing `body`.
struct ThreadPool::ForState {
  std::atomic<std::int64_t> next{0};
  std::int64_t end = 0;
  const std::function<void(std::size_t, std::int64_t)>* body = nullptr;
  // Owning pool's telemetry array; outlives the state because the pool
  // joins its workers (which hold the only late references) on
  // destruction.
  LaneCounters* lanes = nullptr;
  // Lanes currently inside run_lane. Incremented before any index can be
  // claimed (seq_cst), so once a waiter observes next >= end &&
  // in_flight == 0, no body call is running or can ever start.
  std::atomic<std::int64_t> in_flight{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::mutex err_mu;
  std::exception_ptr error;

  /// Drains indices as region lane `lane`. `timed` is the pool slot that
  /// records the busy time, or null when the thread is already timing an
  /// enclosing region.
  void run_lane(std::size_t lane, LaneCounters* timed) {
    in_flight.fetch_add(1);
    const std::int64_t t0 = timed != nullptr ? now_ns() : 0;
    std::int64_t executed = 0;
    for (;;) {
      const std::int64_t i = next.fetch_add(1);
      if (i >= end) break;
      ++executed;
      try {
        (*body)(lane, i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!error) error = std::current_exception();
        }
        next.store(end);  // abandon unclaimed indices
      }
    }
    // A helper that claims no index took no part in the region, and may
    // run after the caller has returned (its task was still queued when
    // the other lanes drained the range), so it records nothing. Lane 0,
    // the caller, counts every region.
    if (lane == 0 || executed > 0) {
      LaneCounters& lc = lanes[lane];
      lc.tasks.fetch_add(executed, std::memory_order_relaxed);
      lc.regions.fetch_add(1, std::memory_order_relaxed);
      if (timed != nullptr) {
        timed->busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
      }
    }
    if (in_flight.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(done_mu);  // pairs with waiter
      done_cv.notify_all();
    }
  }

  bool finished() const {
    return next.load() >= end && in_flight.load() == 0;
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(num_threads == 0 ? 1 : num_threads),
      lane_counters_(new LaneCounters[num_threads == 0 ? 1 : num_threads]) {
  workers_.reserve(num_threads_ - 1);
  for (std::size_t t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  // "Idle" for a worker is time blocked on the queue between helper
  // tasks — the closest analogue of steal-wait in a work-stealing pool.
  t_worker_slot = worker_index;
  LaneCounters& lc = lane_counters_[worker_index];
  for (;;) {
    std::function<void()> task;
    {
      const std::int64_t w0 = now_ns();
      std::unique_lock<std::mutex> lock(mu_);
      idle_workers_.fetch_add(1, std::memory_order_relaxed);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      idle_workers_.fetch_sub(1, std::memory_order_relaxed);
      lc.idle_ns.fetch_add(now_ns() - w0, std::memory_order_relaxed);
      if (tasks_.empty()) return;  // stopping
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    t_in_pool_task = true;
    task();
    t_in_pool_task = false;
  }
}

void ThreadPool::parallel_for_lane(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::size_t, std::int64_t)>& body) {
  if (end <= begin) return;
  const std::int64_t n = end - begin;
  const std::function<void(std::size_t, std::int64_t)> shifted =
      [&body, begin](std::size_t lane, std::int64_t i) {
        body(lane, begin + i);
      };

  // How many helper lanes to recruit. Top-level regions take every worker;
  // nested regions (called from inside another region's body) only recruit
  // workers that are idle *right now* — a busy worker is draining some
  // other region and would only pick the task up after, so enqueueing for
  // it is pure queue churn. The idle count is advisory (a worker may wake
  // or block between the load and the enqueue); a stale helper task claims
  // an index >= end and exits, so the race is harmless. Helper count only
  // affects which thread computes which index, never the per-index
  // results, so outputs stay bit-identical at any lane count — the
  // determinism contract.
  const bool nested = t_in_pool_task;
  std::size_t max_helpers = workers_.size();
  if (nested) {
    const std::int64_t idle = idle_workers_.load(std::memory_order_relaxed);
    max_helpers = std::min<std::size_t>(
        max_helpers, idle > 0 ? static_cast<std::size_t>(idle) : 0);
  }
  const std::size_t helpers =
      std::min<std::size_t>(max_helpers, static_cast<std::size_t>(n - 1));

  // Only a caller outside every region times this one (as slot 0); a
  // nested caller is inside an interval its own lane already times.
  LaneCounters* const timed = nested ? nullptr : &lane_counters_[0];

  // Inline when there is nothing to fan out to: a pool of one, a single
  // index, or a nested region with every worker busy. Lane 0 is then the
  // caller's exclusive lane.
  if (num_threads_ == 1 || n == 1 || helpers == 0) {
    t_in_pool_task = true;
    const std::int64_t t0 = timed != nullptr ? now_ns() : 0;
    for (std::int64_t i = 0; i < n; ++i) shifted(0, i);
    LaneCounters& lc = lane_counters_[0];
    lc.tasks.fetch_add(n, std::memory_order_relaxed);
    lc.regions.fetch_add(1, std::memory_order_relaxed);
    if (timed != nullptr) {
      timed->busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    }
    t_in_pool_task = nested;
    return;
  }

  auto state = std::make_shared<ForState>();
  state->end = n;
  state->body = &shifted;
  state->lanes = lane_counters_.get();

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Helpers run on workers, outside every region: each times its lane
    // under its own slot.
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace_back([state, lane = h + 1] {
        state->run_lane(lane, &state->lanes[t_worker_slot]);
      });
    }
  }
  task_ready_.notify_all();

  // The caller participates as lane 0 (marked as in-region so the nested
  // path above engages for deeper calls), then waits for straggler lanes.
  // Restore rather than clear: a nested caller must leave the outer
  // region's flag intact.
  t_in_pool_task = true;
  state->run_lane(0, timed);
  t_in_pool_task = nested;
  {
    const std::int64_t w0 = timed != nullptr ? now_ns() : 0;
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] { return state->finished(); });
    if (timed != nullptr) {
      timed->idle_ns.fetch_add(now_ns() - w0, std::memory_order_relaxed);
    }
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t)>& body) {
  parallel_for_lane(begin, end,
                    [&body](std::size_t, std::int64_t i) { body(i); });
}

std::vector<LaneStatsSnapshot> ThreadPool::lane_stats() const {
  std::vector<LaneStatsSnapshot> out(num_threads_);
  for (std::size_t l = 0; l < num_threads_; ++l) {
    const LaneCounters& lc = lane_counters_[l];
    out[l].tasks = lc.tasks.load(std::memory_order_relaxed);
    out[l].regions = lc.regions.load(std::memory_order_relaxed);
    out[l].busy_s =
        static_cast<double>(lc.busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    out[l].idle_s =
        static_cast<double>(lc.idle_ns.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return out;
}

void ThreadPool::reset_lane_stats() {
  for (std::size_t l = 0; l < num_threads_; ++l) {
    LaneCounters& lc = lane_counters_[l];
    lc.tasks.store(0, std::memory_order_relaxed);
    lc.regions.store(0, std::memory_order_relaxed);
    lc.busy_ns.store(0, std::memory_order_relaxed);
    lc.idle_ns.store(0, std::memory_order_relaxed);
  }
}

std::size_t ThreadPool::configured_threads() {
  const char* env = std::getenv("FMNET_THREADS");
  if (env != nullptr && env[0] != '\0') {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_threads());
  return pool;
}

}  // namespace fmnet::util
