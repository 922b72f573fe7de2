// smtlite solver: bounds-consistency propagation + complete DFS search
// with chronological backtracking, and branch-and-bound minimisation.
//
// The solver is a resumable state machine so that several seed-varied
// instances can be raced in deterministic lock-step rounds (portfolio
// mode, see minimize_portfolio below) and so a caller can interleave
// solves with other work. begin_solve()/begin_minimize() arm the search;
// step(quantum) advances it by a bounded number of decisions and reports
// whether it finished. solve()/minimize() remain the one-shot fronts.
//
// Determinism contract (the "portfolio determinism rule"): whenever
// minimisation completes with a proven optimum, the returned assignment is
// re-derived by a final *canonical extraction* search — seed-0 branching
// under the constraint objective == optimum — so the assignment depends
// only on the model and the optimal value, never on the branching seed,
// warm-start hints, or which portfolio member finished first. Cold, warm,
// cached and portfolio solves of the same model are therefore bit-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "smt/model.h"
#include "util/stopwatch.h"

namespace fmnet::util {
class ThreadPool;
}  // namespace fmnet::util

namespace fmnet::smt {

/// Search limits. Exceeding any limit stops the search with an UNKNOWN /
/// best-so-far result instead of a definitive answer. Both limits bound the
/// *whole* solve — a minimize() with max_seconds = S finishes within ~S
/// total, not S per inner search. A decision limit makes the outcome a
/// function of the model alone; a wall limit makes it depend on machine
/// load. With max_seconds = +infinity the solver never reads the clock to
/// stop, so the budget is decision-only (CEM's, see impute/cem.h).
struct Budget {
  std::int64_t max_decisions = 50'000'000;
  double max_seconds = 3600.0;
};

/// Outcome of a solve() / minimize() call.
enum class Status {
  kSat,      // feasible assignment found (optimality not proven)
  kOptimal,  // minimize(): best assignment proven optimal
  kUnsat,    // proven infeasible
  kUnknown,  // budget exhausted before any definitive answer
};

/// Result of a solve, including the best (or first) assignment and search
/// statistics used by the scalability benches.
struct SolveResult {
  Status status = Status::kUnknown;
  std::vector<std::int64_t> assignment;  // per-variable value when found
  std::int64_t objective = 0;            // valid when has_solution()
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t conflicts = 0;
  /// Inner DFS searches run (branch-and-bound restarts + the canonical
  /// extraction pass). A plain solve() is exactly one search.
  std::int64_t searches = 0;
  double seconds = 0.0;
  /// Decisions spent in canonical extraction (smt.extract.decisions); the
  /// rest of `decisions` went to finding and improving incumbents.
  std::int64_t extract_decisions = 0;
  /// minimize(): the optimum was proven by propagation alone — the cap one
  /// below the incumbent conflicted at the root, with no search
  /// (smt.root_proofs).
  bool root_proof = false;
  /// True when a warm-start hint was accepted and seeded the incumbent.
  bool warm_started = false;
  /// True when the result was served from the repair cache (solve_cache.h)
  /// without running the solver.
  bool from_cache = false;

  bool has_solution() const {
    return status == Status::kSat || status == Status::kOptimal;
  }
  std::int64_t value(VarId v) const { return assignment.at(v.id); }
};

/// Warm-start hint for minimize(): a (possibly partial) assignment expected
/// to be feasible — e.g. the previous overlapping CEM window's solution.
/// Hinted variables are fixed, propagation completes the rest; if that
/// yields a feasible assignment it seeds the incumbent and the initial
/// objective cap, so branch-and-bound starts at "prove or beat this" instead
/// of discovering a first solution from scratch. Infeasible or inconsistent
/// hints are discarded (the solve proceeds cold) — hints can never change
/// the answer, only the work needed to reach it.
struct WarmStart {
  std::vector<std::pair<VarId, std::int64_t>> hints;
};

/// Complete solver over a Model. The Model must outlive the Solver.
/// Single-use: one solve()/minimize() (or one begin_* + step loop) per
/// instance.
class Solver {
 public:
  struct Options {
    /// Branching seed. 0 is the canonical first-fail order; non-zero seeds
    /// rotate tie-breaking and flip split direction to diversify portfolio
    /// members. The seed never affects the reported optimum or (thanks to
    /// canonical extraction) the returned assignment.
    std::uint64_t branch_seed = 0;
  };

  explicit Solver(const Model& model, Budget budget = {});
  Solver(const Model& model, Budget budget, Options options);

  /// Finds one feasible assignment (ignores the objective).
  SolveResult solve();

  /// Branch-and-bound minimisation of the model's objective. Requires
  /// Model::minimize() to have been called. The optional warm start seeds
  /// the incumbent (see WarmStart).
  SolveResult minimize();
  SolveResult minimize(const WarmStart& warm);

  // ---- stepping interface (used by portfolio mode) ----

  /// Arms a feasibility search / minimisation. Must be called exactly once,
  /// before step().
  void begin_solve();
  void begin_minimize(const WarmStart* warm = nullptr);

  /// Advances the armed search by at most `decision_quantum` decisions.
  /// Returns true when the solve has finished (result() is valid).
  bool step(std::int64_t decision_quantum);

  bool finished() const { return phase_ == Phase::kDone; }
  /// True when the finished result is a definitive answer (kOptimal/kUnsat
  /// — not a budget-limited kSat/kUnknown).
  bool definitive() const {
    return finished() && (result_.status == Status::kOptimal ||
                          result_.status == Status::kUnsat);
  }
  const SolveResult& result() const { return result_; }

  // Live search statistics, valid at any point of a stepped solve (the
  // portfolio driver charges losers' work too, not just the winner's).
  std::int64_t decisions() const { return decisions_; }
  std::int64_t extract_decisions() const { return extract_decisions_; }
  std::int64_t propagations() const { return propagations_; }
  std::int64_t conflicts() const { return conflicts_; }
  std::int64_t searches() const { return searches_; }
  bool warm_started() const { return result_.warm_started; }

 private:
  enum class Phase {
    kIdle,     // constructed, not armed
    kSearch,   // DFS in progress (feasibility or branch-and-bound)
    kExtract,  // optimum proven; canonical extraction search in progress
    kDone,     // result_ valid
  };

  struct NormalisedConstraint {
    // Σ coef·var <= rhs over terms_[begin, end), optionally guarded by
    // (guard_var == guard_value).
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::int64_t rhs = 0;
    std::int32_t guard_var = -1;
    bool guard_value = true;
    // Σ|coef|·max(|lo|, |hi|) over the initial domains, and every |coef|,
    // are below 2^61. Domains only shrink, so this bounds every activity the
    // search can meet: while |rhs| < 2^61 too, propagation is exact in
    // int64 (see propagate_linear).
    bool small = false;
  };

  struct Frame {
    std::size_t trail_mark;
    std::int32_t var;
    std::int64_t split;  // first branch var<=split (or var>split when
                         // upper_first); alternative is the other half
    bool tried_alternative;
    bool upper_first;
  };

  // Bound updates with trail recording; return false on empty domain.
  bool set_hi(std::int32_t var, std::int64_t value);
  bool set_lo(std::int32_t var, std::int64_t value);
  void undo_to(std::size_t mark);
  void clear_dirty();
  void wake(std::int32_t var);  // marks every constraint over var dirty
  void mark_constraint_dirty(std::size_t idx);
  void mark_all_dirty();
  bool small_activity(const NormalisedConstraint& c) const;

  bool propagate();  // to fixpoint; false on conflict
  bool propagate_linear(std::size_t idx);
  template <typename Acc>
  bool propagate_linear_as(const NormalisedConstraint& c);
  bool propagate_clause(std::size_t idx);
  void count_decision();

  std::int32_t pick_variable() const;  // -1 when all fixed
  std::int64_t eval_objective() const;

  void begin(bool minimizing, const WarmStart* warm);
  void try_warm(const WarmStart& warm);
  bool tighten_cap_below_incumbent();
  void enter_extract();
  void on_all_fixed();
  void on_tree_exhausted();
  void finish(Status status);
  void finish_budget_exhausted();

  const Model& model_;
  Budget budget_;
  Options options_;
  std::uint64_t seed_offset_ = 0;  // pick_variable scan rotation
  bool seed_upper_first_ = false;  // split direction for this seed

  std::vector<std::int64_t> lo_;
  std::vector<std::int64_t> hi_;
  std::vector<Term> terms_;  // every constraint's (coef, var), back to back
  std::vector<NormalisedConstraint> constraints_;
  // Occurrence lists in CSR form: the constraints over var v are
  // var_constraints_[var_constraint_begin_[v] .. var_constraint_begin_[v+1]),
  // in constraint order (a guard counts as an occurrence); likewise for
  // clauses. The objective caps are not listed: while minimising they are
  // woken through in_objective_, after the variable's own constraints.
  std::vector<std::uint32_t> var_constraint_begin_;
  std::vector<std::uint32_t> var_constraints_;
  std::vector<std::uint32_t> var_clause_begin_;
  std::vector<std::uint32_t> var_clauses_;
  std::vector<char> in_objective_;

  struct TrailEntry {
    std::int32_t var;
    bool is_hi;
    std::int64_t old_value;
  };
  std::vector<TrailEntry> trail_;
  std::vector<std::uint32_t> dirty_constraints_;
  std::vector<char> constraint_dirty_flag_;
  std::vector<std::uint32_t> dirty_clauses_;
  std::vector<char> clause_dirty_flag_;

  // ---- solve lifetime state (stepping machine) ----
  Phase phase_ = Phase::kIdle;
  bool minimizing_ = false;
  bool conflict_ = false;
  std::vector<Frame> stack_;
  fmnet::Stopwatch clock_;  // one clock for the whole solve (budget fix)
  bool timed_ = false;      // budget_.max_seconds is finite

  // Objective cap constraints, appended by begin_minimize. cap_le_ enforces
  // obj <= K (the branch-and-bound cap); cap_ge_ enforces obj >= K' and
  // stays disabled (rhs at +inf) until canonical extraction pins obj to the
  // proven optimum.
  std::size_t cap_le_idx_ = 0;
  std::size_t cap_ge_idx_ = 0;

  // Trail marks delimiting reusable propagation state. base_mark_: fixpoint
  // of the original constraints only (before any cap inference) — canonical
  // extraction restarts here. root_mark_: fixpoint including inferences from
  // the current objective cap; since the cap only ever tightens, these
  // inferences stay valid for the rest of branch-and-bound, so each restart
  // resumes from root_mark_ instead of re-deriving them (incremental reuse).
  std::size_t base_mark_ = 0;
  std::size_t root_mark_ = 0;

  bool have_incumbent_ = false;
  std::vector<std::int64_t> incumbent_;
  std::int64_t incumbent_objective_ = 0;

  SolveResult result_;
  std::int64_t decisions_ = 0;
  std::int64_t extract_decisions_ = 0;
  std::int64_t propagations_ = 0;
  std::int64_t conflicts_ = 0;
  std::int64_t searches_ = 0;
};

/// Portfolio minimisation: race `members` seed-varied Solvers over the same
/// model in deterministic lock-step rounds of `quantum` decisions each
/// (member 0 uses the canonical seed). The winner is the lowest-index
/// member that reached a definitive answer in the earliest round, so the
/// outcome — already seed-independent thanks to canonical extraction — has
/// a deterministic stats attribution too, at any thread count. Reported
/// decisions/propagations/conflicts/searches sum over every member (the
/// real work spent), and the per-member budget is `budget` (decision
/// budgets are enforced per member).
struct PortfolioOptions {
  int members = 1;
  std::int64_t quantum = 2048;  // decisions per member per round
  util::ThreadPool* pool = nullptr;  // nullptr = global pool
};

SolveResult minimize_portfolio(const Model& model, Budget budget,
                               const PortfolioOptions& options,
                               const WarmStart* warm = nullptr);

}  // namespace fmnet::smt
