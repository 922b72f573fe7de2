#include "smt/solver.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace fmnet::smt {

namespace {

// Exact 128-bit intermediates: every coef·bound product fits in 127 bits,
// so linear activities are accumulated without the int64 overflow UB the
// old solver had on wide domains. A propagated bound always lies inside the
// variable's current domain, so it fits in int64 as written; only objective
// values and cap right-hand sides saturate (sat64). Constraints whose
// activities provably stay below 2^61 take the same arithmetic in int64
// (propagate_linear).
using I128 = __int128;

// Below this bound on activities and |rhs|, every activity, room and term
// width of a constraint is below 2^62 and fits in int64.
constexpr std::int64_t kSmallLimit = std::int64_t{1} << 61;

std::int64_t sat64(I128 v) {
  constexpr I128 kMax = std::numeric_limits<std::int64_t>::max();
  constexpr I128 kMin = std::numeric_limits<std::int64_t>::min();
  if (v > kMax) return std::numeric_limits<std::int64_t>::max();
  if (v < kMin) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(v);
}

// "Unbounded" rhs for the not-yet-armed objective cap constraints.
constexpr std::int64_t kCapInfinity =
    std::numeric_limits<std::int64_t>::max() / 4;

// Process-wide solver accounting, aggregated across every solve on every
// thread (CEM windows run concurrently on the pool). One record per
// user-visible solve/minimize; inner branch-and-bound searches are reported
// distinctly as smt.searches so per-solve averages stay honest. Of the
// decisions, smt.extract.decisions went to canonical extraction, and
// smt.root_proofs counts minimisations proven optimal by root propagation.
void record_solve(const SolveResult& r) {
  auto& reg = obs::Registry::global();
  static obs::Counter& solves = reg.counter("smt.solves");
  static obs::Counter& searches = reg.counter("smt.searches");
  static obs::Counter& decisions = reg.counter("smt.decisions");
  static obs::Counter& propagations = reg.counter("smt.propagations");
  static obs::Counter& conflicts = reg.counter("smt.conflicts");
  static obs::Counter& timeouts = reg.counter("smt.timeouts");
  static obs::Counter& unsat = reg.counter("smt.unsat");
  static obs::Counter& root_proofs = reg.counter("smt.root_proofs");
  static obs::Counter& extract_decisions =
      reg.counter("smt.extract.decisions");
  solves.add(1);
  searches.add(r.searches);
  decisions.add(r.decisions);
  extract_decisions.add(r.extract_decisions);
  if (r.root_proof) root_proofs.add(1);
  propagations.add(r.propagations);
  conflicts.add(r.conflicts);
  if (r.status == Status::kUnknown) timeouts.add(1);
  if (r.status == Status::kUnsat) unsat.add(1);
}

}  // namespace

Solver::Solver(const Model& model, Budget budget)
    : model_(model), budget_(budget) {
  timed_ = budget_.max_seconds < std::numeric_limits<double>::infinity();
  lo_ = model.lower_bounds();
  hi_ = model.upper_bounds();
  const std::size_t n = lo_.size();

  // Normalise every linear constraint to <= form (Eq splits into two),
  // its terms appended to the shared pool.
  const auto& linear = model.linear_constraints();
  std::size_t rows = 0;
  std::size_t terms = 0;
  for (const LinearConstraint& c : linear) {
    const std::size_t k = c.cmp == Cmp::kEq ? 2 : 1;
    rows += k;
    terms += k * (c.end - c.begin);
  }
  terms += 2 * model.objective().terms().size();  // the objective caps
  FMNET_CHECK(terms <= std::numeric_limits<std::uint32_t>::max(),
              "too many constraint terms");
  constraints_.reserve(rows + 2);
  terms_.reserve(terms);
  for (const LinearConstraint& c : linear) {
    auto push = [&](bool negate) {
      NormalisedConstraint nc;
      nc.begin = static_cast<std::uint32_t>(terms_.size());
      for (const auto& [coef, var] : model.terms(c)) {
        terms_.emplace_back(negate ? -coef : coef, var);
      }
      nc.end = static_cast<std::uint32_t>(terms_.size());
      nc.rhs = negate ? -c.rhs : c.rhs;
      nc.guard_var = c.guard_var;
      nc.guard_value = c.guard_value;
      nc.small = small_activity(nc);
      constraints_.push_back(nc);
    };
    switch (c.cmp) {
      case Cmp::kLe:
        push(false);
        break;
      case Cmp::kGe:
        push(true);
        break;
      case Cmp::kEq:
        push(false);
        push(true);
        break;
    }
  }

  // CSR occurrence lists: count, prefix-sum, then fill in constraint order.
  const auto build_csr = [n](std::vector<std::uint32_t>& begin,
                             std::vector<std::uint32_t>& items,
                             std::size_t count, const auto& for_each_var) {
    begin.assign(n + 1, 0);
    for (std::size_t i = 0; i < count; ++i) {
      for_each_var(i, [&](std::int32_t v) { ++begin[v + 1]; });
    }
    for (std::size_t v = 0; v < n; ++v) begin[v + 1] += begin[v];
    items.resize(begin[n]);
    std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < count; ++i) {
      for_each_var(i, [&](std::int32_t v) {
        items[fill[v]++] = static_cast<std::uint32_t>(i);
      });
    }
  };
  build_csr(var_constraint_begin_, var_constraints_, constraints_.size(),
            [this](std::size_t i, const auto& visit) {
              const NormalisedConstraint& c = constraints_[i];
              for (std::uint32_t k = c.begin; k < c.end; ++k) {
                visit(terms_[k].second);
              }
              if (c.guard_var >= 0) visit(c.guard_var);
            });
  const auto& clauses = model.clauses();
  build_csr(var_clause_begin_, var_clauses_, clauses.size(),
            [&clauses](std::size_t i, const auto& visit) {
              for (const BoolLit& l : clauses[i]) visit(l.var.id);
            });
  in_objective_.assign(n, 0);
  constraint_dirty_flag_.assign(constraints_.size(), 0);
  clause_dirty_flag_.assign(clauses.size(), 0);
}

bool Solver::small_activity(const NormalisedConstraint& c) const {
  I128 bound = 0;
  const auto abs128 = [](std::int64_t v) {
    return v < 0 ? -static_cast<I128>(v) : static_cast<I128>(v);
  };
  for (std::uint32_t k = c.begin; k < c.end; ++k) {
    const auto& [coef, var] = terms_[k];
    bound += abs128(coef) * std::max(abs128(lo_[var]), abs128(hi_[var]));
    if (abs128(coef) >= kSmallLimit || bound >= kSmallLimit) return false;
  }
  return true;
}

bool Solver::set_hi(std::int32_t var, std::int64_t value) {
  if (value >= hi_[var]) return true;
  trail_.push_back({var, true, hi_[var]});
  hi_[var] = value;
  if (lo_[var] > hi_[var]) return false;
  wake(var);
  return true;
}

bool Solver::set_lo(std::int32_t var, std::int64_t value) {
  if (value <= lo_[var]) return true;
  trail_.push_back({var, false, lo_[var]});
  lo_[var] = value;
  if (lo_[var] > hi_[var]) return false;
  wake(var);
  return true;
}

void Solver::wake(std::int32_t var) {
  const auto v = static_cast<std::size_t>(var);
  for (std::uint32_t k = var_constraint_begin_[v];
       k < var_constraint_begin_[v + 1]; ++k) {
    mark_constraint_dirty(var_constraints_[k]);
  }
  if (in_objective_[v]) {
    mark_constraint_dirty(cap_le_idx_);
    mark_constraint_dirty(cap_ge_idx_);
  }
  for (std::uint32_t k = var_clause_begin_[v]; k < var_clause_begin_[v + 1];
       ++k) {
    const std::uint32_t ci = var_clauses_[k];
    if (!clause_dirty_flag_[ci]) {
      clause_dirty_flag_[ci] = 1;
      dirty_clauses_.push_back(ci);
    }
  }
}

void Solver::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    (e.is_hi ? hi_ : lo_)[e.var] = e.old_value;
    trail_.pop_back();
  }
}

void Solver::clear_dirty() {
  for (const std::uint32_t idx : dirty_constraints_) {
    constraint_dirty_flag_[idx] = 0;
  }
  dirty_constraints_.clear();
  for (const std::uint32_t idx : dirty_clauses_) clause_dirty_flag_[idx] = 0;
  dirty_clauses_.clear();
}

void Solver::mark_constraint_dirty(std::size_t idx) {
  if (!constraint_dirty_flag_[idx]) {
    constraint_dirty_flag_[idx] = 1;
    dirty_constraints_.push_back(static_cast<std::uint32_t>(idx));
  }
}

void Solver::mark_all_dirty() {
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    mark_constraint_dirty(i);
  }
  for (std::size_t i = 0; i < model_.clauses().size(); ++i) {
    if (!clause_dirty_flag_[i]) {
      clause_dirty_flag_[i] = 1;
      dirty_clauses_.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

bool Solver::propagate_linear(std::size_t idx) {
  // The same bounds in either width: int64 wherever it is exact, else
  // 128 bits. Both give the same fixpoints, so the search cannot tell.
  const NormalisedConstraint& c = constraints_[idx];
  if (c.small && c.rhs > -kSmallLimit && c.rhs < kSmallLimit) {
    return propagate_linear_as<std::int64_t>(c);
  }
  return propagate_linear_as<I128>(c);
}

template <typename Acc>
bool Solver::propagate_linear_as(const NormalisedConstraint& c) {
  // Guard handling.
  bool active = true;
  if (c.guard_var >= 0) {
    const std::int64_t g_lo = lo_[c.guard_var];
    const std::int64_t g_hi = hi_[c.guard_var];
    const std::int64_t want = c.guard_value ? 1 : 0;
    if (g_lo == g_hi) {
      if (g_lo != want) return true;  // guard fixed opposite: inactive
      // guard fixed to active value: enforce below
    } else {
      active = false;  // guard undecided: only infer the guard itself
    }
  }

  // Minimum activity of Σ coef·var, and the widest term |coef|·(hi − lo).
  Acc min_act = 0;
  Acc widest = 0;
  for (std::uint32_t k = c.begin; k < c.end; ++k) {
    const auto& [coef, var] = terms_[k];
    const std::int64_t lo = lo_[var];
    const std::int64_t hi = hi_[var];
    const Acc a = coef;
    const Acc mag = coef > 0 ? a : -a;
    min_act += a * (coef > 0 ? lo : hi);
    widest = std::max(widest, mag * (static_cast<Acc>(hi) - lo));
  }

  if (!active) {
    // Guard undecided: if the constraint cannot hold, the guard must take
    // the opposite value.
    if (min_act > c.rhs) {
      const std::int64_t opposite = c.guard_value ? 0 : 1;
      if (opposite == 0) return set_hi(c.guard_var, 0);
      return set_lo(c.guard_var, 1);
    }
    return true;
  }

  if (min_act > c.rhs) return false;  // violated

  // Tighten each variable given the others at their minimum: it may move
  // floor(room / |coef|) away from its own minimum end, which tightens its
  // domain only when |coef|·(hi − lo) exceeds the room. Unit coefficients,
  // all CEM has, need no division.
  const Acc room = static_cast<Acc>(c.rhs) - min_act;
  if (widest <= room) return true;  // no bound can move
  for (std::uint32_t k = c.begin; k < c.end; ++k) {
    const auto& [coef, var] = terms_[k];
    const std::int64_t lo = lo_[var];
    const std::int64_t hi = hi_[var];
    const Acc a = coef;
    const Acc mag = coef > 0 ? a : -a;
    if (mag * (static_cast<Acc>(hi) - lo) <= room) continue;
    // lo < lo + step < hi here (and likewise for hi − step), so the new
    // bound fits in int64 in either width.
    const Acc step = mag == 1 ? room : room / mag;
    const bool ok = coef > 0
                        ? set_hi(var, static_cast<std::int64_t>(lo + step))
                        : set_lo(var, static_cast<std::int64_t>(hi - step));
    if (!ok) return false;
  }
  return true;
}

bool Solver::propagate_clause(std::size_t idx) {
  const auto& clause = model_.clauses()[idx];
  std::int32_t unfixed = -1;
  bool unfixed_positive = true;
  int num_unfixed = 0;
  for (const BoolLit& l : clause) {
    const std::int64_t vlo = lo_[l.var.id];
    const std::int64_t vhi = hi_[l.var.id];
    if (vlo == vhi) {
      const bool value = vlo == 1;
      if (value == l.positive) return true;  // satisfied
    } else {
      ++num_unfixed;
      unfixed = l.var.id;
      unfixed_positive = l.positive;
    }
  }
  if (num_unfixed == 0) return false;  // all literals false
  if (num_unfixed == 1) {
    // Unit: force the remaining literal true.
    if (unfixed_positive) return set_lo(unfixed, 1);
    return set_hi(unfixed, 0);
  }
  return true;
}

bool Solver::propagate() {
  while (!dirty_constraints_.empty() || !dirty_clauses_.empty()) {
    while (!dirty_constraints_.empty()) {
      const std::size_t idx = dirty_constraints_.back();
      dirty_constraints_.pop_back();
      constraint_dirty_flag_[idx] = 0;
      ++propagations_;
      if (!propagate_linear(idx)) return false;
    }
    while (!dirty_clauses_.empty()) {
      const std::size_t idx = dirty_clauses_.back();
      dirty_clauses_.pop_back();
      clause_dirty_flag_[idx] = 0;
      ++propagations_;
      if (!propagate_clause(idx)) return false;
    }
  }
  return true;
}

std::int32_t Solver::pick_variable() const {
  const std::size_t n = lo_.size();
  if (n == 0) return -1;
  std::int32_t best = -1;
  std::uint64_t best_size = 0;
  // First-fail (smallest domain); ties go to the lowest index.
  for (std::size_t v = 0; v < n; ++v) {
    if (lo_[v] == hi_[v]) continue;
    const std::uint64_t size = static_cast<std::uint64_t>(hi_[v]) -
                               static_cast<std::uint64_t>(lo_[v]);
    if (best < 0 || size < best_size) {
      best = static_cast<std::int32_t>(v);
      best_size = size;
    }
  }
  return best;
}

std::int64_t Solver::eval_objective() const {
  I128 obj = model_.objective().constant();
  for (const auto& [coef, var] : model_.objective().terms()) {
    obj += static_cast<I128>(coef) * lo_[var.id];
  }
  return sat64(obj);
}

void Solver::begin(bool minimizing, const WarmStart* warm) {
  FMNET_CHECK(phase_ == Phase::kIdle, "Solver instances are single-use");
  clock_.reset();
  minimizing_ = minimizing;
  if (minimizing) {
    FMNET_CHECK(model_.has_objective(), "minimize() without an objective");
    // Two pre-wired cap constraints over the objective terms: cap_le_
    // (obj' <= K) drives branch-and-bound; cap_ge_ (-obj' <= K) stays at
    // +inf until canonical extraction pins obj' to the proven optimum.
    // They are woken through in_objective_, after each variable's own
    // constraints. Zero-coefficient terms (an objective whose terms
    // cancelled) constrain nothing and are left out.
    auto add_cap = [&](bool negate) {
      NormalisedConstraint cap;
      cap.begin = static_cast<std::uint32_t>(terms_.size());
      for (const auto& [coef, var] : model_.objective().terms()) {
        if (coef == 0) continue;
        terms_.emplace_back(negate ? -coef : coef, var.id);
        in_objective_[static_cast<std::size_t>(var.id)] = 1;
      }
      cap.end = static_cast<std::uint32_t>(terms_.size());
      cap.rhs = kCapInfinity;
      cap.small = small_activity(cap);
      constraints_.push_back(cap);
      constraint_dirty_flag_.push_back(0);
      return constraints_.size() - 1;
    };
    cap_le_idx_ = add_cap(false);
    cap_ge_idx_ = add_cap(true);
  }
  phase_ = Phase::kSearch;
  ++searches_;
  mark_all_dirty();
  if (!propagate()) {
    clear_dirty();
    undo_to(0);
    finish(Status::kUnsat);
    return;
  }
  base_mark_ = root_mark_ = trail_.size();
  conflict_ = false;
  if (minimizing && warm != nullptr) try_warm(*warm);
}

void Solver::try_warm(const WarmStart& warm) {
  auto& reg = obs::Registry::global();
  static obs::Counter& accepted = reg.counter("smt.warm.accepted");
  static obs::Counter& rejected = reg.counter("smt.warm.rejected");
  const std::size_t mark = trail_.size();
  bool ok = !warm.hints.empty();
  for (const auto& [var, value] : warm.hints) {
    if (!ok) break;
    if (var.id < 0 || static_cast<std::size_t>(var.id) >= lo_.size()) {
      ok = false;
      break;
    }
    ok = value >= lo_[var.id] && value <= hi_[var.id] &&
         set_lo(var.id, value) && set_hi(var.id, value);
  }
  ok = ok && propagate();
  // Complete the (possibly partial) hint with a propagation dive: fix each
  // remaining variable to its lower bound and re-propagate. Reaching an
  // all-fixed fixpoint without conflict proves feasibility, because every
  // constraint over a touched variable was re-checked at exact activity and
  // untouched ones were already consistent at the root fixpoint. The dive
  // only tightens, so the variables before the one just fixed stay fixed
  // and one pass in index order visits them all.
  for (std::size_t v = 0; ok && v < lo_.size(); ++v) {
    if (lo_[v] == hi_[v]) continue;
    const auto var = static_cast<std::int32_t>(v);
    ok = set_hi(var, lo_[var]) && propagate();
  }
  if (ok) {
    have_incumbent_ = true;
    incumbent_.assign(lo_.begin(), lo_.end());
    incumbent_objective_ = eval_objective();
    result_.warm_started = true;
    accepted.add(1);
  } else {
    rejected.add(1);
  }
  clear_dirty();
  undo_to(mark);
  if (have_incumbent_ && !tighten_cap_below_incumbent()) enter_extract();
}

bool Solver::tighten_cap_below_incumbent() {
  // Require strictly better than the incumbent from here on. Inferences
  // propagated from the cap at root level stay valid for the rest of
  // branch-and-bound (the cap only ever tightens), so they are retained on
  // the trail below root_mark_ rather than re-derived each restart.
  const I128 next = static_cast<I128>(incumbent_objective_) -
                    model_.objective().constant() - 1;
  constraints_[cap_le_idx_].rhs = sat64(next);
  mark_constraint_dirty(cap_le_idx_);
  if (!propagate()) {
    clear_dirty();
    result_.root_proof = true;  // refuted at the root: optimum proven
    return false;
  }
  root_mark_ = trail_.size();
  return true;
}

void Solver::enter_extract() {
  // Optimum proven: re-derive the assignment canonically (the same
  // branching from the root fixpoint under objective == optimum) so the
  // result is independent of the warm start and of the incumbents found.
  phase_ = Phase::kExtract;
  ++searches_;
  stack_.clear();
  clear_dirty();
  undo_to(base_mark_);
  const I128 b = static_cast<I128>(incumbent_objective_) -
                 model_.objective().constant();
  constraints_[cap_le_idx_].rhs = sat64(b);
  constraints_[cap_ge_idx_].rhs = sat64(-b);
  mark_constraint_dirty(cap_le_idx_);
  mark_constraint_dirty(cap_ge_idx_);
  conflict_ = !propagate();
  if (conflict_) clear_dirty();
  // A conflict here is impossible (the incumbent witnesses the optimum);
  // the defensive fallback lives in on_tree_exhausted().
}

void Solver::on_all_fixed() {
  if (phase_ == Phase::kExtract) {
    result_.assignment.assign(lo_.begin(), lo_.end());
    result_.objective = incumbent_objective_;
    undo_to(0);
    finish(Status::kOptimal);
    return;
  }
  if (!minimizing_) {
    result_.assignment.assign(lo_.begin(), lo_.end());
    if (model_.has_objective()) result_.objective = eval_objective();
    undo_to(0);
    finish(Status::kSat);
    return;
  }
  // Improving solution: record it, then restart from the retained root
  // fixpoint with a tighter cap (incremental branch-and-bound).
  have_incumbent_ = true;
  incumbent_.assign(lo_.begin(), lo_.end());
  incumbent_objective_ = eval_objective();
  stack_.clear();
  undo_to(root_mark_);
  if (tighten_cap_below_incumbent()) {
    ++searches_;
  } else {
    enter_extract();
  }
}

void Solver::on_tree_exhausted() {
  if (phase_ == Phase::kExtract) {
    // Unreachable in theory (the incumbent witnesses objective == optimum);
    // fall back to the incumbent defensively.
    result_.assignment = incumbent_;
    result_.objective = incumbent_objective_;
    undo_to(0);
    finish(Status::kOptimal);
    return;
  }
  if (minimizing_ && have_incumbent_) {
    enter_extract();  // nothing beats the incumbent: optimum proven
    return;
  }
  undo_to(0);
  finish(Status::kUnsat);
}

void Solver::count_decision() {
  ++decisions_;
  if (phase_ == Phase::kExtract) ++extract_decisions_;
}

void Solver::finish(Status status) {
  result_.status = status;
  result_.decisions = decisions_;
  result_.extract_decisions = extract_decisions_;
  result_.propagations = propagations_;
  result_.conflicts = conflicts_;
  result_.searches = searches_;
  result_.seconds = clock_.elapsed_seconds();
  phase_ = Phase::kDone;
}

void Solver::finish_budget_exhausted() {
  clear_dirty();
  undo_to(0);
  if (minimizing_ && have_incumbent_) {
    // Feasible but not certified within budget. Even when the proof had
    // completed, an unfinished canonical extraction reports kSat so that
    // kOptimal always implies the canonically extracted assignment.
    result_.assignment = incumbent_;
    result_.objective = incumbent_objective_;
    finish(Status::kSat);
    return;
  }
  finish(Status::kUnknown);
}

void Solver::search() {
  while (phase_ != Phase::kDone) {
    if (decisions_ > budget_.max_decisions ||
        (timed_ && clock_.elapsed_seconds() > budget_.max_seconds)) {
      finish_budget_exhausted();
      return;
    }

    if (conflict_) {
      ++conflicts_;
      clear_dirty();
      // Backtrack to the deepest frame with an untried alternative.
      while (!stack_.empty() && stack_.back().tried_alternative) {
        undo_to(stack_.back().trail_mark);
        stack_.pop_back();
      }
      if (stack_.empty()) {
        conflict_ = false;
        on_tree_exhausted();
        continue;
      }
      Frame& f = stack_.back();
      undo_to(f.trail_mark);
      f.tried_alternative = true;
      count_decision();
      conflict_ = !set_lo(f.var, f.split + 1) || !propagate();
      continue;
    }

    const std::int32_t var = pick_variable();
    if (var < 0) {
      on_all_fixed();
      continue;
    }

    // Decision: split the domain, lower half first.
    const std::uint64_t width = static_cast<std::uint64_t>(hi_[var]) -
                                static_cast<std::uint64_t>(lo_[var]);
    const std::int64_t split =
        lo_[var] + static_cast<std::int64_t>(width / 2);
    stack_.push_back({trail_.size(), var, split, false});
    count_decision();
    conflict_ = !set_hi(var, split) || !propagate();
  }
}

SolveResult Solver::run(bool minimizing, const WarmStart* warm) {
  begin(minimizing, warm);
  search();
  record_solve(result_);
  return result_;
}

SolveResult Solver::solve() { return run(/*minimizing=*/false, nullptr); }

SolveResult Solver::minimize() { return run(/*minimizing=*/true, nullptr); }

SolveResult Solver::minimize(const WarmStart& warm) {
  return run(/*minimizing=*/true, &warm);
}

}  // namespace fmnet::smt
