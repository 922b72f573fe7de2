// Content-addressed repair cache: recurring constraint systems skip the
// solver entirely.
//
// CEM repair poses the same constraint system over and over — telemetry
// violation patterns recur across windows, ports and scenario reruns — so
// the serving path keys each canonicalised system (format.h repair_key, a
// 128-bit content address digested straight from the model) and memoises
// the *definitive* solver answers. Cache safety rests on two invariants:
//
//   * only kOptimal / kUnsat results are stored — a budget-limited kSat or
//     kUnknown depends on the budget, not just the model, and must never
//     be replayed;
//   * stored assignments come from canonical extraction (solver.h), so a
//     hit is bit-identical to what a cold solve of the same model returns.
//
// Unlike the artifact store this cache is in-memory and process-wide: the
// entries are tiny (one assignment vector), the hit path must cost
// microseconds not a filesystem round-trip, and repair results are already
// reproducible from the scenario artifacts on disk. Hits and misses are
// exported as smt.cache.{hit,miss} counters.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <mutex>

#include "smt/solver.h"

namespace fmnet::util {
class ThreadPool;
}  // namespace fmnet::util

namespace fmnet::smt {

/// Thread-safe in-memory map from repair_key to definitive SolveResult.
class SolveCache {
 public:
  explicit SolveCache(std::size_t max_entries = 1 << 16)
      : max_entries_(max_entries) {}

  /// Process-wide instance used by repair_minimize.
  static SolveCache& global();

  /// Returns the memoised result (from_cache = true, zero search stats) or
  /// nullopt. Bumps smt.cache.hit / smt.cache.miss.
  std::optional<SolveResult> find(const std::string& key);

  /// Stores a definitive (kOptimal/kUnsat) result; other statuses are
  /// ignored. When full, the whole map is dropped (epoch eviction) — the
  /// bound exists to cap memory, not to maximise retention.
  void put(const std::string& key, const SolveResult& result);

  void clear();
  std::size_t size() const;

 private:
  struct Entry {
    Status status;
    std::vector<std::int64_t> assignment;
    std::int64_t objective;
  };

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
};

/// Knobs for the cached/warm/portfolio repair path. Defaults reproduce a
/// plain cold minimize().
struct RepairOptions {
  Budget budget{};
  /// Consult and fill SolveCache::global().
  bool use_cache = false;
  /// Portfolio members (1 = single canonical solver; see
  /// minimize_portfolio).
  int portfolio_members = 1;
  std::int64_t portfolio_quantum = 2048;
  util::ThreadPool* pool = nullptr;  // nullptr = global pool
};

/// Front door for CEM repair solves: cache lookup, then (on miss) a warm /
/// portfolio minimize, then cache fill. The returned assignment is
/// bit-identical across every option combination whenever the solve
/// completes (canonical extraction + definitive-only caching).
SolveResult repair_minimize(const Model& model, const RepairOptions& options,
                            const WarmStart* warm = nullptr);

}  // namespace fmnet::smt
