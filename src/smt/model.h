// smtlite: a small, complete constraint solver over bounded integers.
//
// The paper uses Z3 for two jobs: (a) the FM-alone per-time-step switch
// model (§2.3) and (b) the Constraint Enforcement Module's minimal-change
// correction (§3.2). Both are satisfiability/optimisation problems over
// *bounded integers with linear arithmetic, reification and disjunction* —
// exactly the fragment smtlite implements:
//
//   * integer variables with finite domains [lo, hi]
//     (booleans are just 0/1 integers),
//   * linear constraints  Σ aᵢxᵢ ⋈ c  for ⋈ ∈ {≤, ≥, =},
//   * clauses (disjunctions of boolean literals),
//   * half-reified implications  (b = v) → linear constraint,
//   * full reification  b ↔ linear constraint,
//   * if-then-else terms and max-of-set, built from the primitives,
//   * linear objective minimisation via branch-and-bound.
//
// The solver (solver.h) performs bounds-consistency propagation to a
// fixpoint and complete DFS with first-fail branching, so SAT/UNSAT answers
// are definitive (no approximation); node/time budgets return UNKNOWN.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fmnet::smt {

/// Handle to an integer variable in a Model.
struct VarId {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
  friend bool operator==(VarId a, VarId b) { return a.id == b.id; }
};

/// A boolean literal: variable (must be 0/1) asserted true or false.
struct BoolLit {
  VarId var;
  bool positive = true;
};
inline BoolLit pos(VarId v) { return {v, true}; }
inline BoolLit neg(VarId v) { return {v, false}; }

/// Comparison operator of a linear constraint.
enum class Cmp { kLe, kGe, kEq };

/// Linear expression Σ coefᵢ·varᵢ + constant.
class LinExpr {
 public:
  LinExpr() = default;
  /*implicit*/ LinExpr(std::int64_t constant) : constant_(constant) {}
  /*implicit*/ LinExpr(VarId v) { add_term(1, v); }

  /// Adds coef·var (merging with an existing term for the same var).
  LinExpr& add_term(std::int64_t coef, VarId var);
  LinExpr& add_constant(std::int64_t c) {
    constant_ += c;
    return *this;
  }

  const std::vector<std::pair<std::int64_t, VarId>>& terms() const {
    return terms_;
  }
  std::int64_t constant() const { return constant_; }

  LinExpr operator+(const LinExpr& other) const;
  LinExpr operator-(const LinExpr& other) const;
  LinExpr operator*(std::int64_t k) const;

 private:
  std::vector<std::pair<std::int64_t, VarId>> terms_;
  std::int64_t constant_ = 0;
};

/// One term (coef, var) of a stored linear constraint.
using Term = std::pair<std::int64_t, std::int32_t>;

/// Internal storage of one linear constraint  expr ⋈ 0  (rhs folded in).
/// Its terms are Model::terms(c): a range of the model's shared term pool,
/// so a constraint owns no allocation of its own.
struct LinearConstraint {
  std::uint32_t begin = 0;  // term pool range [begin, end)
  std::uint32_t end = 0;
  std::int64_t rhs = 0;  // Σ coef·var ⋈ rhs
  Cmp cmp = Cmp::kLe;
  /// Enforcement guard: if guard_var >= 0, the constraint only applies when
  /// that 0/1 variable equals guard_value (half-reification).
  std::int32_t guard_var = -1;
  bool guard_value = true;
};

/// Declarative constraint model; feed to Solver.
class Model {
 public:
  /// New integer variable with inclusive domain [lo, hi].
  VarId new_int(std::int64_t lo, std::int64_t hi, std::string name = "");
  /// New boolean (0/1) variable.
  VarId new_bool(std::string name = "");

  std::size_t num_vars() const { return lo_.size(); }
  std::int64_t lower_bound(VarId v) const { return lo_.at(v.id); }
  std::int64_t upper_bound(VarId v) const { return hi_.at(v.id); }
  const std::string& name(VarId v) const { return names_.at(v.id); }

  /// Hard linear constraint  expr ⋈ rhs.
  void add_linear(const LinExpr& expr, Cmp cmp, std::int64_t rhs);

  /// Clause: at least one literal true. Encoded natively (not via linear)
  /// for efficient unit propagation.
  void add_clause(std::vector<BoolLit> lits);

  /// Half-reified: (b == value) → (expr ⋈ rhs).
  void add_implies(BoolLit b, const LinExpr& expr, Cmp cmp, std::int64_t rhs);

  /// Full reification b ↔ (expr ⋈ rhs); cmp must be kLe or kGe (equality
  /// reification can be composed from two bools and a clause).
  void add_reified(VarId b, const LinExpr& expr, Cmp cmp, std::int64_t rhs);

  /// Fresh variable r with  c → r = if_true  and  ¬c → r = if_false.
  VarId add_ite(VarId cond, const LinExpr& if_true, const LinExpr& if_false,
                std::int64_t lo, std::int64_t hi, std::string name = "");

  /// Fresh variable m = max(vars); vars must be non-empty.
  VarId add_max(const std::vector<VarId>& vars, std::string name = "");

  /// Fresh variable d = |expr| with d in [0, hi].
  VarId add_abs(const LinExpr& expr, std::int64_t hi, std::string name = "");

  /// Sets the linear objective to minimise (optional; used by
  /// Solver::minimize).
  void minimize(const LinExpr& objective);
  bool has_objective() const { return has_objective_; }
  const LinExpr& objective() const { return objective_; }

  // ---- solver-facing internals ----
  const std::vector<std::int64_t>& lower_bounds() const { return lo_; }
  const std::vector<std::int64_t>& upper_bounds() const { return hi_; }
  const std::vector<LinearConstraint>& linear_constraints() const {
    return linear_;
  }
  std::span<const Term> terms(const LinearConstraint& c) const {
    return {terms_.data() + c.begin, terms_.data() + c.end};
  }
  const std::vector<std::vector<BoolLit>>& clauses() const { return clauses_; }

 private:
  void check_var(VarId v) const;
  void check_bool(VarId v) const;
  /// Stores  lead·x + expr ⋈ rhs  (no lead term when lead_coef is 0),
  /// guarded by `guard` when its variable is valid. `lead` is a fresh
  /// variable, never one of expr's, so no terms merge.
  void push_linear(std::int64_t lead_coef, VarId lead, const LinExpr& expr,
                   std::int64_t expr_sign, Cmp cmp, std::int64_t rhs,
                   BoolLit guard);
  /// add_implies for a body  lead·x + expr_sign·expr ⋈ rhs.
  void implies(BoolLit b, std::int64_t lead_coef, VarId lead,
               const LinExpr& expr, std::int64_t expr_sign, Cmp cmp,
               std::int64_t rhs);

  std::vector<std::int64_t> lo_;
  std::vector<std::int64_t> hi_;
  std::vector<std::string> names_;
  std::vector<Term> terms_;
  std::vector<LinearConstraint> linear_;
  std::vector<std::vector<BoolLit>> clauses_;
  LinExpr objective_;
  bool has_objective_ = false;
};

}  // namespace fmnet::smt
