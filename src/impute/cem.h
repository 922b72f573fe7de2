// Constraint Enforcement Module (paper §3.2).
//
// CEM post-corrects a transformer-imputed queue-length series so that the
// selected constraints hold *exactly*, while minimally changing the output:
//
//   min Σ_{t ∉ T_samples} | Q̂c[t] − Q̂[t] |
//   s.t. C1: per interval w,  max_{t∈w} Q̂c[t] ≤ m_max_w
//        C2: Q̂c[t] = m_len_t              for sampled t
//        C3: per interval w,  #{t∈w : Q̂c[t] > 0} ≤ m_out_w
//
// C1 is an upper bound (not an attained equality): m_max is the LANZ
// slot-granularity intra-interval maximum, which the per-ms corrected
// series may legitimately stay below when the peak fell between two ms
// samples (see constraints/constraints.h). Where an interval's LANZ report
// was lost, C1 does not bind (ExampleConstraints::c1_binds) and the repair
// enforces only C2/C3 there.
//
// Because every constraint is interval-local, the optimisation decomposes
// into one problem per coarse interval: correct() reads each interval of
// the record as a PacketInterval, runs the window repair on it — the same
// repair serving calls per published interval — and stitches the results
// in order. Independent intervals are corrected concurrently on the shared
// ThreadPool. Two interchangeable engines solve each interval over integer
// packet counts:
//
//  * kFastRepair — an exact specialised algorithm: each step's
//    unconstrained optimum is clamp(round(q̂), 0, m_max); then the steps
//    zeroed for C3 are the cheapest ones (optimal since step costs are
//    independent). O(F log F) per interval.
//  * kSmtBranchAndBound — the same encoding handed to the smtlite solver
//    as a branch-and-bound minimisation (how the paper uses Z3).
//
// Property tests assert the two engines produce equal objective values.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "constraints/constraints.h"
#include "smt/solver.h"
#include "util/thread_pool.h"

namespace fmnet::impute {

/// One coarse interval of a constraint record in integer packet units —
/// what a window repair consumes.
struct PacketInterval {
  /// C1 bound in packets; nullopt where the interval's LANZ report was
  /// lost, so C1 does not bind (the repair then uses a bound wide enough to
  /// admit the rounded input and every sample).
  std::optional<std::int64_t> m_max;
  /// C3: non-empty steps the port budget allows.
  std::int64_t m_out = 0;
  /// C2 per fine step of the interval: the sampled packets, or -1.
  std::vector<std::int64_t> sample_at;
};

/// Interval `w` of `c` in packets: queue lengths scaled by `qlen_scale`
/// and rounded, the step budget rounded, the samples that fall in the
/// interval scattered onto its steps. The record must already have passed
/// check_shape.
PacketInterval packet_interval(const constraints::ExampleConstraints& c,
                               double qlen_scale, std::int64_t w);

enum class CemEngine { kFastRepair, kSmtBranchAndBound };

struct CemConfig {
  CemEngine engine = CemEngine::kFastRepair;
  /// Budget for the SMT engine, per interval: decisions only, so a repair
  /// never depends on machine load (wall time is observed in cem.window_ms,
  /// never enforced). A window that exhausts it keeps its best incumbent,
  /// or takes the infeasible fallback when it has none.
  smt::Budget smt_budget{
      .max_decisions = 2'000'000,
      .max_seconds = std::numeric_limits<double>::infinity()};
  /// Serving-path accelerators for the SMT engine (no effect on the fast
  /// engine). All of them preserve the repaired output bit-for-bit: solver
  /// results are canonically extracted (smt/solver.h) and only definitive
  /// answers are cached (smt/solve_cache.h).
  /// Memoise solved windows in the process-wide repair cache, keyed by the
  /// canonicalised constraint system (recurring violation patterns skip
  /// the solver).
  bool use_repair_cache = true;
  /// Seed each window's branch-and-bound with a feasible repair candidate
  /// (the fast-repair solution, or the caller's warm values) instead of
  /// discovering a first incumbent by search.
  bool warm_start = true;
  /// Portfolio members racing seed-varied branching orders per window
  /// (1 = single canonical solver; see smt::minimize_portfolio).
  int portfolio = 1;
  std::int64_t portfolio_quantum = 2048;
};

struct CemResult {
  std::vector<double> corrected;  // packets, same length as input
  /// Σ |corrected - round(imputed)| over non-sampled steps (integer).
  std::int64_t objective = 0;
  bool feasible = true;
  double seconds = 0.0;
};

/// Result of the port-level joint correction.
struct PortCemResult {
  std::vector<std::vector<double>> corrected;  // [queue][t], packets
  std::int64_t objective = 0;
  bool feasible = true;
  double seconds = 0.0;
};

class ConstraintEnforcementModule {
 public:
  explicit ConstraintEnforcementModule(CemConfig config = {})
      : config_(config) {}

  /// Corrects one window (in packets) against its record, whose queue
  /// lengths are normalised by `qlen_scale`. `imputed` length must be
  /// factor * #intervals. Throws CheckError on malformed constraints;
  /// returns feasible=false when the constraint system is contradictory
  /// (cannot happen for measurements produced by a real switch).
  /// Intervals are corrected concurrently on `pool` (null = global pool);
  /// the result is identical at every thread count.
  CemResult correct(const std::vector<double>& imputed,
                    const constraints::ExampleConstraints& c,
                    double qlen_scale,
                    util::ThreadPool* pool = nullptr) const;

  /// Port-level joint correction: the paper's exact C3 semantics, where
  /// the non-empty indicator is the *disjunction over all queues of the
  /// port* (Fig. 3 / §3, NE_i). Corrects every queue of the port
  /// simultaneously so that Σ_t [∨_q Q̂c[q][t] > 0] <= m_out per interval,
  /// in addition to per-queue C1/C2. All per-queue constraint records must
  /// share coarse_factor and horizon; per_queue[0].port_sent carries the
  /// port budget. Solved with the smtlite engine (the joint problem has no
  /// independent-cost structure for the fast repair).
  /// Windows are solved concurrently on `pool` (null = global pool) with a
  /// deterministic in-order stitch.
  PortCemResult correct_port(
      const std::vector<std::vector<double>>& imputed,
      const std::vector<constraints::ExampleConstraints>& per_queue,
      double qlen_scale, util::ThreadPool* pool = nullptr) const;

  /// The window repair: corrects one interval, of length
  /// `interval.sample_at.size()` (== factor), and does the cem.* accounting
  /// for it. An infeasible interval comes back as the input clamped to
  /// >= 0. `warm_values`, when given, is a repair candidate for the window
  /// — e.g. the overlapping part of the previous window's solution — used
  /// to warm-start the SMT engine (it is first made feasible by the fast
  /// repair, so it never has to be exactly feasible itself). The returned
  /// repair is identical with or without warm values whenever the solve
  /// completes. `imputed` must have length factor.
  CemResult correct_window(
      const std::vector<double>& imputed, const PacketInterval& interval,
      const std::vector<std::int64_t>* warm_values = nullptr) const;

 private:
  struct IntervalResult {
    std::vector<std::int64_t> values;
    std::int64_t objective = 0;
    bool feasible = true;
  };
  IntervalResult correct_interval_fast(const std::vector<double>& imputed,
                                       std::int64_t m_max,
                                       std::int64_t m_out,
                                       const std::vector<std::int64_t>&
                                           sample_at,  // -1 = not sampled
                                       std::int64_t factor) const;
  IntervalResult correct_interval_smt(const std::vector<double>& imputed,
                                      std::int64_t m_max, std::int64_t m_out,
                                      const std::vector<std::int64_t>&
                                          sample_at,
                                      std::int64_t factor,
                                      const std::vector<std::int64_t>*
                                          warm_values = nullptr) const;

  CemConfig config_;
};

/// Incremental repair of a sliding window advancing by `stride` steps at a
/// time (stride < factor ⇒ consecutive windows overlap). Each repair
/// warm-starts the solver from the previous window's solution shifted by
/// the stride: overlapping telemetry rarely changes the optimal repair of
/// the shared suffix, so the previous solution is usually an
/// immediately-feasible incumbent. Results are bit-identical to repairing
/// each window cold (see correct_window). With stride >= factor no windows
/// overlap and every repair is cold.
class StreamingCemRepair {
 public:
  explicit StreamingCemRepair(CemConfig config, std::int64_t stride)
      : cem_(config), stride_(stride) {}

  /// Repairs the current window (length = interval.sample_at.size()); call
  /// with consecutive windows advanced by `stride` steps each.
  CemResult repair(const std::vector<double>& imputed,
                   const PacketInterval& interval);

  /// Forgets the previous window (e.g. at a series boundary).
  void reset() { prev_.clear(); }

 private:
  ConstraintEnforcementModule cem_;
  std::int64_t stride_;
  std::vector<std::int64_t> prev_;  // previous window's repaired values
};

}  // namespace fmnet::impute
