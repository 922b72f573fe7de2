#include "smt/model.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace fmnet::smt {

LinExpr& LinExpr::add_term(std::int64_t coef, VarId var) {
  FMNET_CHECK(var.valid(), "term on invalid variable");
  if (coef == 0) return *this;
  for (auto& [c, v] : terms_) {
    if (v == var) {
      c += coef;
      return *this;
    }
  }
  terms_.emplace_back(coef, var);
  return *this;
}

LinExpr LinExpr::operator+(const LinExpr& other) const {
  LinExpr out = *this;
  out.constant_ += other.constant_;
  for (const auto& [c, v] : other.terms_) out.add_term(c, v);
  return out;
}

LinExpr LinExpr::operator-(const LinExpr& other) const {
  LinExpr out = *this;
  out.constant_ -= other.constant_;
  for (const auto& [c, v] : other.terms_) out.add_term(-c, v);
  return out;
}

LinExpr LinExpr::operator*(std::int64_t k) const {
  LinExpr out;
  out.constant_ = constant_ * k;
  for (const auto& [c, v] : terms_) out.add_term(c * k, v);
  return out;
}

VarId Model::new_int(std::int64_t lo, std::int64_t hi, std::string name) {
  FMNET_CHECK_LE(lo, hi);
  lo_.push_back(lo);
  hi_.push_back(hi);
  if (name.empty()) {
    // Built in a fresh string and move-assigned: GCC 12's -Wrestrict
    // false-positives (PR105651) on any replace/assign into `name` here.
    std::string generated("v");
    generated += std::to_string(lo_.size() - 1);
    name = std::move(generated);
  }
  names_.push_back(std::move(name));
  return VarId{static_cast<std::int32_t>(lo_.size() - 1)};
}

VarId Model::new_bool(std::string name) {
  return new_int(0, 1, std::move(name));
}

void Model::check_var(VarId v) const {
  FMNET_CHECK(v.valid() && static_cast<std::size_t>(v.id) < lo_.size(),
              "unknown variable");
}

void Model::check_bool(VarId v) const {
  check_var(v);
  FMNET_CHECK(lo_[v.id] >= 0 && hi_[v.id] <= 1,
              "variable " + names_[v.id] + " is not boolean");
}

void Model::push_linear(std::int64_t lead_coef, VarId lead,
                        const LinExpr& expr, std::int64_t expr_sign, Cmp cmp,
                        std::int64_t rhs, BoolLit guard) {
  LinearConstraint c;
  c.cmp = cmp;
  c.rhs = rhs - expr_sign * expr.constant();
  c.guard_var = guard.var.id;
  c.guard_value = guard.positive;
  c.begin = static_cast<std::uint32_t>(terms_.size());
  if (lead_coef != 0) terms_.emplace_back(lead_coef, lead.id);
  for (const auto& [coef, var] : expr.terms()) {
    if (coef != 0) terms_.emplace_back(expr_sign * coef, var.id);
  }
  FMNET_CHECK(terms_.size() <= std::numeric_limits<std::uint32_t>::max(),
              "too many constraint terms");
  c.end = static_cast<std::uint32_t>(terms_.size());
  linear_.push_back(c);
}

void Model::add_linear(const LinExpr& expr, Cmp cmp, std::int64_t rhs) {
  for (const auto& [coef, var] : expr.terms()) check_var(var);
  push_linear(0, VarId{}, expr, 1, cmp, rhs, BoolLit{});
}

void Model::add_clause(std::vector<BoolLit> lits) {
  FMNET_CHECK(!lits.empty(), "empty clause is trivially false");
  for (const BoolLit& l : lits) check_bool(l.var);
  clauses_.push_back(std::move(lits));
}

void Model::add_implies(BoolLit b, const LinExpr& expr, Cmp cmp,
                        std::int64_t rhs) {
  check_bool(b.var);
  for (const auto& [coef, var] : expr.terms()) check_var(var);
  implies(b, 0, VarId{}, expr, 1, cmp, rhs);
}

void Model::implies(BoolLit b, std::int64_t lead_coef, VarId lead,
                    const LinExpr& expr, std::int64_t expr_sign, Cmp cmp,
                    std::int64_t rhs) {
  if (cmp == Cmp::kEq) {
    // b -> (body = rhs) splits into two guarded inequalities.
    implies(b, lead_coef, lead, expr, expr_sign, Cmp::kLe, rhs);
    implies(b, lead_coef, lead, expr, expr_sign, Cmp::kGe, rhs);
    return;
  }
  push_linear(lead_coef, lead, expr, expr_sign, cmp, rhs, b);
}

void Model::add_reified(VarId b, const LinExpr& expr, Cmp cmp,
                        std::int64_t rhs) {
  check_bool(b);
  FMNET_CHECK(cmp != Cmp::kEq,
              "reify equality by conjoining two inequality reifications");
  // b -> (expr cmp rhs)
  add_implies(pos(b), expr, cmp, rhs);
  // !b -> negation of (expr cmp rhs). Over integers:
  //   !(expr <= rhs)  is  expr >= rhs + 1
  //   !(expr >= rhs)  is  expr <= rhs - 1
  if (cmp == Cmp::kLe) {
    add_implies(neg(b), expr, Cmp::kGe, rhs + 1);
  } else {
    add_implies(neg(b), expr, Cmp::kLe, rhs - 1);
  }
}

VarId Model::add_ite(VarId cond, const LinExpr& if_true,
                     const LinExpr& if_false, std::int64_t lo,
                     std::int64_t hi, std::string name) {
  check_bool(cond);
  const VarId r = new_int(lo, hi, std::move(name));
  add_implies(pos(cond), LinExpr(r) - if_true, Cmp::kEq, 0);
  add_implies(neg(cond), LinExpr(r) - if_false, Cmp::kEq, 0);
  return r;
}

VarId Model::add_max(const std::vector<VarId>& vars, std::string name) {
  FMNET_CHECK(!vars.empty(), "max of empty set");
  std::int64_t lo = lower_bound(vars.front());
  std::int64_t hi = upper_bound(vars.front());
  for (const VarId v : vars) {
    check_var(v);
    lo = std::max(lo, lower_bound(v));
    hi = std::max(hi, upper_bound(v));
  }
  const VarId m = new_int(lo, hi, std::move(name));
  // m >= x_i for all i, and at least one x_i >= m (via reified booleans).
  std::vector<BoolLit> attained;
  attained.reserve(vars.size());
  for (const VarId v : vars) {
    add_linear(LinExpr(m) - LinExpr(v), Cmp::kGe, 0);
    const VarId b = new_bool();
    add_reified(b, LinExpr(v) - LinExpr(m), Cmp::kGe, 0);
    attained.push_back(pos(b));
  }
  add_clause(std::move(attained));
  return m;
}

VarId Model::add_abs(const LinExpr& expr, std::int64_t hi, std::string name) {
  FMNET_CHECK_GE(hi, 0);
  const VarId d = new_int(0, hi, std::move(name));
  // d >= expr and d >= -expr; with minimisation pressure d = |expr|.
  // For exactness regardless of objective, also force d <= |expr| via a
  // sign boolean: s -> (expr >= 0 and d = expr); !s -> (expr <= -1 and
  // d = -expr).
  const VarId s = new_bool();
  for (const auto& [coef, var] : expr.terms()) check_var(var);
  implies(pos(s), 0, VarId{}, expr, 1, Cmp::kGe, 0);
  implies(pos(s), 1, d, expr, -1, Cmp::kEq, 0);  // d - expr = 0
  implies(neg(s), 0, VarId{}, expr, 1, Cmp::kLe, -1);
  implies(neg(s), 1, d, expr, 1, Cmp::kEq, 0);  // d + expr = 0
  return d;
}

void Model::minimize(const LinExpr& objective) {
  for (const auto& [coef, var] : objective.terms()) check_var(var);
  objective_ = objective;
  has_objective_ = true;
}

}  // namespace fmnet::smt
