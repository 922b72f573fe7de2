// Tests for smtlite: propagation & search correctness, encoding helpers
// (ite/max/abs/reify), optimisation, budgets, and randomized cross-checks
// against brute-force enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "obs/metrics.h"
#include "smt/format.h"
#include "smt/model.h"
#include "smt/solve_cache.h"
#include "smt/solver.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace fmnet::smt {
namespace {

TEST(LinExprTest, MergesTermsAndArithmetic) {
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  const VarId y = m.new_int(0, 5, "y");
  LinExpr e = LinExpr(x) + LinExpr(x) + LinExpr(y) * 3 + LinExpr(7);
  ASSERT_EQ(e.terms().size(), 2u);
  EXPECT_EQ(e.terms()[0].first, 2);  // x merged
  EXPECT_EQ(e.terms()[1].first, 3);
  EXPECT_EQ(e.constant(), 7);
  const LinExpr d = e - LinExpr(x) * 2;
  // x term cancels to zero coefficient; evaluation must treat it as absent.
  std::int64_t coef_x = 0;
  for (const auto& [c, v] : d.terms()) {
    if (v == x) coef_x = c;
  }
  EXPECT_EQ(coef_x, 0);
}

TEST(SolverTest, TrivialSat) {
  Model m;
  const VarId x = m.new_int(2, 4, "x");
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_GE(r.value(x), 2);
  EXPECT_LE(r.value(x), 4);
}

TEST(SolverTest, SimpleSystemSat) {
  // x + y = 7, x - y <= 1, x,y in [0,10] — e.g. (3,4) or (4,3).
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, 7);
  m.add_linear(LinExpr(x) - LinExpr(y), Cmp::kLe, 1);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x) + r.value(y), 7);
  EXPECT_LE(r.value(x) - r.value(y), 1);
}

TEST(SolverTest, InfeasibleBoundsUnsat) {
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  m.add_linear(LinExpr(x), Cmp::kGe, 5);
  Solver s(m);
  EXPECT_EQ(s.solve().status, Status::kUnsat);
}

TEST(SolverTest, EqualityChainPropagates) {
  // x = y, y = z, z = 4.
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  const VarId z = m.new_int(0, 10, "z");
  m.add_linear(LinExpr(x) - LinExpr(y), Cmp::kEq, 0);
  m.add_linear(LinExpr(y) - LinExpr(z), Cmp::kEq, 0);
  m.add_linear(LinExpr(z), Cmp::kEq, 4);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), 4);
  EXPECT_EQ(r.value(y), 4);
  // The chain must resolve by propagation alone: no decisions needed.
  EXPECT_EQ(r.decisions, 0);
}

TEST(SolverTest, NegativeCoefficientsAndDomains) {
  // -2x + 3y <= -5 with x in [-4, 4], y in [-4, 0]: need 2x >= 3y + 5.
  Model m;
  const VarId x = m.new_int(-4, 4, "x");
  const VarId y = m.new_int(-4, 0, "y");
  m.add_linear(LinExpr(x) * -2 + LinExpr(y) * 3, Cmp::kLe, -5);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_LE(-2 * r.value(x) + 3 * r.value(y), -5);
}

TEST(SolverTest, ClauseUnitPropagation) {
  Model m;
  const VarId a = m.new_bool("a");
  const VarId b = m.new_bool("b");
  m.add_clause({pos(a), pos(b)});
  m.add_linear(LinExpr(a), Cmp::kEq, 0);  // a = 0 forces b = 1
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 1);
  EXPECT_EQ(r.decisions, 0);
}

TEST(SolverTest, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: each pigeon in exactly one hole, holes hold <= 1.
  Model m;
  constexpr int kP = 4;
  constexpr int kH = 3;
  std::vector<std::vector<VarId>> in(kP);
  for (int p = 0; p < kP; ++p) {
    LinExpr sum;
    for (int h = 0; h < kH; ++h) {
      in[p].push_back(m.new_bool());
      sum = sum + LinExpr(in[p][h]);
    }
    m.add_linear(sum, Cmp::kEq, 1);
  }
  for (int h = 0; h < kH; ++h) {
    LinExpr sum;
    for (int p = 0; p < kP; ++p) sum = sum + LinExpr(in[p][h]);
    m.add_linear(sum, Cmp::kLe, 1);
  }
  Solver s(m);
  EXPECT_EQ(s.solve().status, Status::kUnsat);
}

TEST(SolverTest, ImpliesGuardForward) {
  // b=1 -> x <= 2; force b=1; x >= 2 => x == 2.
  Model m;
  const VarId b = m.new_bool("b");
  const VarId x = m.new_int(0, 10, "x");
  m.add_implies(pos(b), LinExpr(x), Cmp::kLe, 2);
  m.add_linear(LinExpr(b), Cmp::kEq, 1);
  m.add_linear(LinExpr(x), Cmp::kGe, 2);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), 2);
}

TEST(SolverTest, ImpliesGuardContrapositive) {
  // b=1 -> x <= 2, but x >= 5 forced: b must become 0.
  Model m;
  const VarId b = m.new_bool("b");
  const VarId x = m.new_int(0, 10, "x");
  m.add_implies(pos(b), LinExpr(x), Cmp::kLe, 2);
  m.add_linear(LinExpr(x), Cmp::kGe, 5);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 0);
}

TEST(SolverTest, ReifiedBothDirections) {
  Model m;
  const VarId b = m.new_bool("b");
  const VarId x = m.new_int(0, 10, "x");
  m.add_reified(b, LinExpr(x), Cmp::kLe, 3);
  m.add_linear(LinExpr(x), Cmp::kEq, 7);
  Solver s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 0);  // 7 <= 3 is false

  Model m2;
  const VarId b2 = m2.new_bool("b");
  const VarId x2 = m2.new_int(0, 10, "x");
  m2.add_reified(b2, LinExpr(x2), Cmp::kLe, 3);
  m2.add_linear(LinExpr(b2), Cmp::kEq, 0);  // force "not (x <= 3)"
  Solver s2(m2);
  r = s2.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_GE(r.value(x2), 4);
}

TEST(SolverTest, IteSelectsBranch) {
  Model m;
  const VarId c = m.new_bool("c");
  const VarId r1 = m.add_ite(c, LinExpr(10), LinExpr(20), 0, 100, "r");
  m.add_linear(LinExpr(c), Cmp::kEq, 1);
  Solver s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(r1), 10);

  Model m2;
  const VarId c2 = m2.new_bool("c");
  const VarId r2 = m2.add_ite(c2, LinExpr(10), LinExpr(20), 0, 100, "r");
  m2.add_linear(LinExpr(c2), Cmp::kEq, 0);
  Solver s2(m2);
  r = s2.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(r2), 20);
}

TEST(SolverTest, MaxConstraintAttained) {
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  const VarId y = m.new_int(0, 5, "y");
  const VarId mx = m.add_max({x, y}, "max");
  m.add_linear(LinExpr(mx), Cmp::kEq, 4);
  m.add_linear(LinExpr(x), Cmp::kLe, 2);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(y), 4);  // only y can attain the max
  EXPECT_EQ(std::max(r.value(x), r.value(y)), 4);
}

TEST(SolverTest, MaxCannotExceedAllVars) {
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  const VarId y = m.new_int(0, 3, "y");
  const VarId mx = m.add_max({x, y});
  m.add_linear(LinExpr(mx), Cmp::kEq, 5);  // impossible
  Solver s(m);
  EXPECT_EQ(s.solve().status, Status::kUnsat);
}

TEST(SolverTest, AbsValueExact) {
  for (const std::int64_t target : {-7LL, 0LL, 7LL}) {
    Model m;
    const VarId x = m.new_int(-10, 10, "x");
    const VarId d = m.add_abs(LinExpr(x) - LinExpr(3), 20, "d");
    m.add_linear(LinExpr(x), Cmp::kEq, target);
    Solver s(m);
    const auto r = s.solve();
    ASSERT_EQ(r.status, Status::kSat) << "target " << target;
    EXPECT_EQ(r.value(d), std::abs(target - 3));
  }
}

TEST(SolverTest, MinimizeSimpleLP) {
  // min x + y s.t. x + 2y >= 7, x,y in [0,10] -> optimum 4 at (1,3)? No:
  // x+2y>=7 minimising x+y: best is y as large as useful: (0,4)->4? x+2y=8
  // ok cost 4; (1,3) cost 4 too; optimum is 4.
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y) * 2, Cmp::kGe, 7);
  m.minimize(LinExpr(x) + LinExpr(y));
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 4);
}

TEST(SolverTest, MinimizeWithConstantInObjective) {
  Model m;
  const VarId x = m.new_int(2, 9, "x");
  m.minimize(LinExpr(x) + LinExpr(100));
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 102);
  EXPECT_EQ(r.value(x), 2);
}

TEST(SolverTest, MinimizeKnapsackLikeSelection) {
  // Choose items to cover weight >= 10 with min cost.
  // items: (w, c) = (6,5), (5,4), (4,3), (3,1)
  Model m;
  const std::vector<std::pair<int, int>> items{{6, 5}, {5, 4}, {4, 3}, {3, 1}};
  LinExpr weight;
  LinExpr cost;
  std::vector<VarId> take;
  for (const auto& [w, c] : items) {
    const VarId b = m.new_bool();
    take.push_back(b);
    weight = weight + LinExpr(b) * w;
    cost = cost + LinExpr(b) * c;
  }
  m.add_linear(weight, Cmp::kGe, 10);
  m.minimize(cost);
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  // Best: items 2 and 3 (w=7) no... need >=10: {0,3}: w9 no; {0,2}: w10 c8;
  // {1,2}: w9 no; {0,1}: w11 c9; {1,2,3} w12 c8; {0,2,3} w13 c9; {2,3} w7.
  // Optimum cost is 8.
  EXPECT_EQ(r.objective, 8);
}

TEST(SolverTest, UnsatMinimizeReportsUnknownNoSolution) {
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  m.add_linear(LinExpr(x), Cmp::kGe, 5);
  m.minimize(LinExpr(x));
  Solver s(m);
  const auto r = s.minimize();
  EXPECT_FALSE(r.has_solution());
  EXPECT_EQ(r.status, Status::kUnsat);
}

TEST(SolverTest, DecisionBudgetReturnsUnknown) {
  // A hard pigeonhole instance with a 1-decision budget must hit UNKNOWN.
  Model m;
  constexpr int kP = 9;
  constexpr int kH = 8;
  std::vector<std::vector<VarId>> in(kP);
  for (int p = 0; p < kP; ++p) {
    LinExpr sum;
    for (int h = 0; h < kH; ++h) {
      in[p].push_back(m.new_bool());
      sum = sum + LinExpr(in[p][h]);
    }
    m.add_linear(sum, Cmp::kEq, 1);
  }
  for (int h = 0; h < kH; ++h) {
    LinExpr sum;
    for (int p = 0; p < kP; ++p) sum = sum + LinExpr(in[p][h]);
    m.add_linear(sum, Cmp::kLe, 1);
  }
  Budget b;
  b.max_decisions = 1;
  Solver s(m, b);
  EXPECT_EQ(s.solve().status, Status::kUnknown);
}

TEST(SolverTest, LargeDomainBisectionIsLogarithmic) {
  // Finding a pinned value in a million-wide domain must take ~log2(1e6)
  // decisions, not a linear scan — validates the domain-splitting search.
  Model m;
  const VarId x = m.new_int(0, 1'000'000, "x");
  const VarId y = m.new_int(0, 1'000'000, "y");
  m.add_linear(LinExpr(x) - LinExpr(y), Cmp::kEq, 123);
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, 2 * 123'456 + 123);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(y), 123'456);
  EXPECT_EQ(r.value(x), 123'579);
  EXPECT_LT(r.decisions, 60);
}

TEST(SolverTest, ManyGuardsChainPropagation) {
  // b_i -> x >= i for i = 1..20; forcing all b_i leaves x = 20 by
  // propagation alone.
  Model m;
  const VarId x = m.new_int(0, 20, "x");
  for (int i = 1; i <= 20; ++i) {
    const VarId b = m.new_bool();
    m.add_implies(pos(b), LinExpr(x), Cmp::kGe, i);
    m.add_linear(LinExpr(b), Cmp::kEq, 1);
  }
  m.add_linear(LinExpr(x), Cmp::kLe, 20);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), 20);
}

TEST(SolverTest, ZeroCoefficientTermsIgnored) {
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  LinExpr e;
  e.add_term(0, x);  // dropped
  e.add_term(2, x);
  m.add_linear(e, Cmp::kEq, 6);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), 3);
}

TEST(FormatTest, RendersDeclarationsAndConstraints) {
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  const VarId b = m.new_bool("b");
  m.add_linear(LinExpr(x) * 2, Cmp::kLe, 7);
  m.add_implies(pos(b), LinExpr(x), Cmp::kGe, 1);
  m.add_clause({pos(b)});
  m.minimize(LinExpr(x));
  const std::string s = to_smtlib(m);
  EXPECT_NE(s.find("(declare-const x Int)"), std::string::npos);
  EXPECT_NE(s.find("(* 2 x)"), std::string::npos);
  EXPECT_NE(s.find("(=> (= b 1)"), std::string::npos);
  EXPECT_NE(s.find("(minimize"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property tests: random small instances cross-checked against brute force.
// ---------------------------------------------------------------------------

struct RandomInstance {
  int num_vars;
  int num_constraints;
  std::uint64_t seed;
};

class RandomCrossCheck : public ::testing::TestWithParam<RandomInstance> {};

TEST_P(RandomCrossCheck, MatchesBruteForce) {
  const auto& param = GetParam();
  fmnet::Rng rng(param.seed);

  constexpr std::int64_t kLo = 0;
  constexpr std::int64_t kHi = 4;
  Model m;
  std::vector<VarId> vars;
  for (int v = 0; v < param.num_vars; ++v) {
    vars.push_back(m.new_int(kLo, kHi));
  }
  struct RawConstraint {
    std::vector<std::int64_t> coefs;
    Cmp cmp;
    std::int64_t rhs;
  };
  std::vector<RawConstraint> raw;
  for (int c = 0; c < param.num_constraints; ++c) {
    RawConstraint rc;
    LinExpr e;
    for (int v = 0; v < param.num_vars; ++v) {
      const std::int64_t coef = rng.uniform_int(-2, 2);
      rc.coefs.push_back(coef);
      e.add_term(coef, vars[v]);
    }
    const int which = static_cast<int>(rng.uniform_int(0, 2));
    rc.cmp = which == 0 ? Cmp::kLe : (which == 1 ? Cmp::kGe : Cmp::kEq);
    rc.rhs = rng.uniform_int(-4, 8);
    raw.push_back(rc);
    m.add_linear(e, rc.cmp, rc.rhs);
  }
  // Objective: minimise a random positive combination.
  LinExpr obj;
  std::vector<std::int64_t> obj_coefs;
  for (int v = 0; v < param.num_vars; ++v) {
    const std::int64_t coef = rng.uniform_int(0, 3);
    obj_coefs.push_back(coef);
    obj.add_term(coef, vars[v]);
  }
  m.minimize(obj);

  // Brute force over (kHi-kLo+1)^num_vars assignments.
  std::int64_t best = -1;
  std::vector<std::int64_t> assign(param.num_vars, kLo);
  while (true) {
    bool feasible = true;
    for (const RawConstraint& rc : raw) {
      std::int64_t act = 0;
      for (int v = 0; v < param.num_vars; ++v) {
        act += rc.coefs[v] * assign[v];
      }
      const bool ok = rc.cmp == Cmp::kLe   ? act <= rc.rhs
                      : rc.cmp == Cmp::kGe ? act >= rc.rhs
                                           : act == rc.rhs;
      if (!ok) {
        feasible = false;
        break;
      }
    }
    if (feasible) {
      std::int64_t o = 0;
      for (int v = 0; v < param.num_vars; ++v) o += obj_coefs[v] * assign[v];
      if (best < 0 || o < best) best = o;
    }
    int d = 0;
    while (d < param.num_vars && ++assign[d] > kHi) {
      assign[d] = kLo;
      ++d;
    }
    if (d == param.num_vars) break;
  }

  Solver s(m);
  const auto r = s.minimize();
  if (best < 0) {
    EXPECT_EQ(r.status, Status::kUnsat) << "seed " << param.seed;
  } else {
    ASSERT_EQ(r.status, Status::kOptimal) << "seed " << param.seed;
    EXPECT_EQ(r.objective, best) << "seed " << param.seed;
    // Returned assignment must itself be feasible.
    for (const RawConstraint& rc : raw) {
      std::int64_t act = 0;
      for (int v = 0; v < param.num_vars; ++v) {
        act += rc.coefs[v] * r.value(vars[v]);
      }
      const bool ok = rc.cmp == Cmp::kLe   ? act <= rc.rhs
                      : rc.cmp == Cmp::kGe ? act >= rc.rhs
                                           : act == rc.rhs;
      EXPECT_TRUE(ok) << "seed " << param.seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Regression tests for the solver bugfixes: 64-bit overflow in propagation,
// minimize() wall-clock budget, and the solve/search counter schema.
// ---------------------------------------------------------------------------

TEST(SolverOverflowTest, WideDomainLinearPropagationIsExact) {
  // The minimum activity of -8x - 8y with x,y in [0, 2^60] is -2^64,
  // far outside int64: the solver must accumulate activities in 128 bits
  // and only saturate when writing variable bounds. A naive 64-bit
  // accumulation wraps and mis-propagates. x is kept on a small domain so
  // the cap/constraint interplay converges quickly; the optimum is
  // exactly 2^60 - 1.
  constexpr std::int64_t kHuge = std::int64_t{1} << 60;
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  const VarId y = m.new_int(0, kHuge, "y");
  m.add_linear(LinExpr(x) * 8 + LinExpr(y) * 8, Cmp::kGe,
               std::numeric_limits<std::int64_t>::max() - 7);  // 2^63 - 8
  m.minimize(LinExpr(x) + LinExpr(y));
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, kHuge - 1);
  const auto activity = static_cast<__int128>(r.value(x)) * 8 +
                        static_cast<__int128>(r.value(y)) * 8;
  EXPECT_TRUE(activity >= static_cast<__int128>(
                              std::numeric_limits<std::int64_t>::max() - 7));
}

TEST(SolverOverflowTest, NearLimitUpperBoundStillSat) {
  // Maximum activity of 2x + 2y with x,y in [0, INT64_MAX/2] is
  // ~2^63.9 — slack arithmetic must not wrap. Propagation alone pins
  // x = kBig - 1 (from the lower bound) and y = 0 (from the cap).
  constexpr std::int64_t kBig = std::numeric_limits<std::int64_t>::max() / 2;
  Model m;
  const VarId x = m.new_int(0, kBig, "x");
  const VarId y = m.new_int(0, kBig, "y");
  m.add_linear(LinExpr(x) * 2 + LinExpr(y) * 2, Cmp::kLe,
               std::numeric_limits<std::int64_t>::max() - 2);
  m.add_linear(LinExpr(x), Cmp::kGe, kBig - 1);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), kBig - 1);
  EXPECT_EQ(r.value(y), 0);
}

TEST(SolverOverflowTest, NegatedHugeCoefficientsUnsatDetected) {
  // -7x <= -(2^62) forces x >= 2^62/7; combined with a small upper bound
  // the system is UNSAT. The old 64-bit floor-division path overflowed on
  // the intermediate product.
  constexpr std::int64_t kHuge = std::int64_t{1} << 62;
  Model m;
  const VarId x = m.new_int(0, 1'000'000, "x");
  m.add_linear(LinExpr(x) * -7, Cmp::kLe, -kHuge);
  Solver s(m);
  EXPECT_EQ(s.solve().status, Status::kUnsat);
}

// The int64 path: a constraint propagates in int64 while
// Σ|coef|·max(|lo|, |hi|) over its initial domains and |rhs| are below 2^61,
// and in 128 bits otherwise. Each case sits just below or just above that
// line, and its bound on x is derived by hand: pinning x at the bound must
// fix it by propagation alone, and one step past the bound is UNSAT.
TEST(SolverOverflowTest, Int64BoundaryMatchesHandDerivedBounds) {
  constexpr std::int64_t k61 = std::int64_t{1} << 61;
  constexpr std::int64_t k60 = std::int64_t{1} << 60;
  constexpr std::int64_t k59 = std::int64_t{1} << 59;
  constexpr std::int64_t k58 = std::int64_t{1} << 58;
  constexpr std::int64_t k57 = std::int64_t{1} << 57;
  constexpr std::int64_t kThird = (k60 - 1) / 3;  // 2^60 ≡ 1 (mod 3)
  struct Case {
    const char* name;
    std::int64_t x_hi;  // x in [0, x_hi]
    std::int64_t y;     // y fixed: domain [y, y]
    std::int64_t cx;
    std::int64_t cy;
    Cmp cmp;
    std::int64_t rhs;
    int guard;   // 0: none; +1: b -> body, b = 1; -1: !b -> body, b = 0
    bool upper;  // the body bounds x from above (else from below)
    std::int64_t bound;
  };
  const std::vector<Case> cases = {
      // x + y <= 2^60 + 2^59, y = 2^60: x <= 2^59. Bound 2^61 - 1 / 2^61.
      {"unit_le_below", k60 - 1, k60, 1, 1, Cmp::kLe, k60 + k59, 0, true,
       k59},
      {"unit_le_above", k60, k60, 1, 1, Cmp::kLe, k60 + k59, 0, true, k59},
      {"unit_le_guarded_below", k60 - 1, k60, 1, 1, Cmp::kLe, k60 + k59, 1,
       true, k59},
      {"unit_le_guarded_above", k60, k60, 1, 1, Cmp::kLe, k60 + k59, -1, true,
       k59},
      // x - y <= 2^60 + 2^59, y = -2^60: x <= 2^59.
      {"neg_domain_below", k60 - 1, -k60, 1, -1, Cmp::kLe, k60 + k59, 0, true,
       k59},
      {"neg_domain_above", k60, -k60, 1, -1, Cmp::kLe, k60 + k59, 0, true,
       k59},
      // 2x + y <= 2^60 + 2^58 + 1, y = 2^60: x <= floor((2^58 + 1)/2).
      // Bound 2^61 - 2 / 2^61.
      {"coef2_le_below", k59 - 1, k60, 2, 1, Cmp::kLe, k60 + k58 + 1, 0, true,
       k57},
      {"coef2_le_above", k59, k60, 2, 1, Cmp::kLe, k60 + k58 + 1, 0, true,
       k57},
      // -3x + 2y >= 2^58 + 1, y = 2^59: x <= floor((3·2^58 - 1)/3).
      // Bound 2^61 - 1 / 2^61 + 2.
      {"coef_neg3_ge_below", kThird, k59, -3, 2, Cmp::kGe, k58 + 1, 0, true,
       k58 - 1},
      {"coef_neg3_ge_above", kThird + 1, k59, -3, 2, Cmp::kGe, k58 + 1, 0,
       true, k58 - 1},
      {"coef_neg3_ge_guarded_below", kThird, k59, -3, 2, Cmp::kGe, k58 + 1,
       -1, true, k58 - 1},
      {"coef_neg3_ge_guarded_above", kThird + 1, k59, -3, 2, Cmp::kGe, k58 + 1,
       1, true, k58 - 1},
      // -3x + 2y <= 2^58 - 1, y = 2^59: x >= ceil((3·2^58 + 1)/3).
      {"coef_neg3_le_below", kThird, k59, -3, 2, Cmp::kLe, k58 - 1, 0, false,
       k58 + 1},
      {"coef_neg3_le_above", kThird + 1, k59, -3, 2, Cmp::kLe, k58 - 1, 0,
       false, k58 + 1},
      // rhs at the line: x + y >= 2^61 - 1 with bound 2^61 - 1 fixes x at
      // x_hi = 2^60 - 1; x + y >= 2^61 with bound 2^61 fixes x = 2^60.
      {"rhs_below", k60 - 1, k60, 1, 1, Cmp::kGe, k61 - 1, 0, false, k60 - 1},
      {"rhs_above", k60, k60, 1, 1, Cmp::kGe, k61, 0, false, k60},
      {"rhs_guarded_below", k60 - 1, k60, 1, 1, Cmp::kGe, k61 - 1, 1, false,
       k60 - 1},
      {"rhs_guarded_above", k60, k60, 1, 1, Cmp::kGe, k61, -1, false, k60},
  };
  // kPin fixes x at the bound; kPast pins it one step beyond; kUndecided
  // pins it beyond with the guard left free, which must switch the body off.
  enum Pin { kPin, kPast, kUndecided };
  auto build = [](const Case& c, Pin pin, VarId* x_out, VarId* b_out) {
    Model m;
    const VarId x = m.new_int(0, c.x_hi, "x");
    const VarId y = m.new_int(c.y, c.y, "y");
    const LinExpr body = LinExpr(x) * c.cx + LinExpr(y) * c.cy;
    VarId b;
    if (c.guard == 0) {
      m.add_linear(body, c.cmp, c.rhs);
    } else {
      b = m.new_bool("b");
      const BoolLit g = c.guard > 0 ? pos(b) : neg(b);
      m.add_implies(g, body, c.cmp, c.rhs);
      if (pin != kUndecided) m.add_clause({g});
    }
    const std::int64_t at =
        pin == kPin ? c.bound : (c.upper ? c.bound + 1 : c.bound - 1);
    m.add_linear(LinExpr(x), c.upper ? Cmp::kGe : Cmp::kLe, at);
    *x_out = x;
    *b_out = b;
    return m;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    VarId x;
    VarId b;
    const Model pinned = build(c, kPin, &x, &b);
    const SolveResult r = Solver(pinned).solve();
    ASSERT_EQ(r.status, Status::kSat);
    EXPECT_EQ(r.decisions, 0);
    EXPECT_EQ(r.value(x), c.bound);
    EXPECT_EQ(Solver(build(c, kPast, &x, &b)).solve().status, Status::kUnsat);
    if (c.guard != 0) {
      const Model free_guard = build(c, kUndecided, &x, &b);
      const SolveResult rg = Solver(free_guard).solve();
      ASSERT_EQ(rg.status, Status::kSat);
      EXPECT_EQ(rg.value(b), c.guard > 0 ? 0 : 1);
    }
  }
}

namespace {
// P pigeons into P-1 holes with a per-pigeon "unplaced" escape variable;
// minimising unplaced pigeons has optimum 1 but proving it (the cap-0
// search) is a full pigeonhole refutation — exponentially hard for a
// chronological-backtracking solver, ideal for budget tests.
Model escape_pigeonhole(int pigeons) {
  Model m;
  const int holes = pigeons - 1;
  std::vector<std::vector<VarId>> in(static_cast<std::size_t>(pigeons));
  LinExpr unplaced;
  for (int p = 0; p < pigeons; ++p) {
    const VarId u = m.new_bool();
    LinExpr placed(u);
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(m.new_bool());
      placed = placed + LinExpr(in[static_cast<std::size_t>(p)].back());
    }
    m.add_linear(placed, Cmp::kGe, 1);
    unplaced = unplaced + LinExpr(u);
  }
  for (int h = 0; h < holes; ++h) {
    LinExpr col;
    for (int p = 0; p < pigeons; ++p) {
      col = col + LinExpr(in[static_cast<std::size_t>(p)]
                            [static_cast<std::size_t>(h)]);
    }
    m.add_linear(col, Cmp::kLe, 1);
  }
  m.minimize(unplaced);
  return m;
}
}  // namespace

TEST(SolverBudgetTest, MinimizeHonoursWallClockAcrossSearches) {
  // max_seconds bounds the WHOLE minimize — incumbent searches, every
  // improvement search and the optimality proof share one clock. The old
  // solver re-armed a fresh stopwatch per inner search, so a minimize
  // could run a multiple of its budget.
  const Model m = escape_pigeonhole(14);
  Budget b;
  b.max_decisions = std::numeric_limits<std::int64_t>::max() / 4;
  b.max_seconds = 0.3;
  Solver s(m, b);
  fmnet::Stopwatch clock;
  const auto r = s.minimize();
  const double elapsed = clock.elapsed_seconds();
  EXPECT_LT(elapsed, 1.2) << "budget 0.3s overran to " << elapsed << "s";
  // The easy incumbent (all pigeons unplaced, then improvements) is found
  // well inside the budget; the cap-0 proof is what exhausts it.
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_TRUE(r.has_solution());
  EXPECT_GE(r.objective, 1);
}

TEST(SolverCounterTest, OneMinimizeIsOneSolveManySearches) {
  auto& reg = obs::Registry::global();
  const std::int64_t solves0 = reg.counter("smt.solves").value();
  const std::int64_t searches0 = reg.counter("smt.searches").value();

  Model m;
  const VarId x = m.new_int(0, 50, "x");
  const VarId y = m.new_int(0, 50, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kGe, 20);
  m.minimize(LinExpr(x) + LinExpr(y) * 2);
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);

  // One user-level minimize = exactly one smt.solves, regardless of how
  // many inner branch-and-bound searches it ran; those are smt.searches.
  EXPECT_EQ(reg.counter("smt.solves").value() - solves0, 1);
  EXPECT_EQ(reg.counter("smt.searches").value() - searches0, r.searches);
  EXPECT_GE(r.searches, 2);  // incumbent search + at least the extraction

  const std::int64_t solves1 = reg.counter("smt.solves").value();
  const std::int64_t searches1 = reg.counter("smt.searches").value();
  Solver s2(m);
  const auto r2 = s2.solve();
  ASSERT_EQ(r2.status, Status::kSat);
  EXPECT_EQ(reg.counter("smt.solves").value() - solves1, 1);
  EXPECT_EQ(reg.counter("smt.searches").value() - searches1, 1);
  EXPECT_EQ(r2.searches, 1);
}

TEST(SolverGuardTest, GuardBackPropagatesToFalseWhenBodyImpossible) {
  // b -> x >= 5 while x is pinned to 2: the guard literal must be forced
  // to its opposite polarity by propagation alone (zero decisions).
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  const VarId b = m.new_bool("b");
  m.add_linear(LinExpr(x), Cmp::kEq, 2);
  m.add_implies(pos(b), LinExpr(x), Cmp::kGe, 5);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 0);
  EXPECT_EQ(r.value(x), 2);
  EXPECT_EQ(r.decisions, 0);
}

TEST(SolverGuardTest, NegativeGuardBackPropagatesToTrue) {
  // ¬b -> x >= 5 while x is pinned to 2 forces b = 1, again by pure
  // propagation.
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  const VarId b = m.new_bool("b");
  m.add_linear(LinExpr(x), Cmp::kEq, 2);
  m.add_implies(neg(b), LinExpr(x), Cmp::kGe, 5);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 1);
  EXPECT_EQ(r.decisions, 0);
}

TEST(SolverGuardTest, FixedOppositeGuardLeavesBodyInactive) {
  // b fixed to 0 keeps "b -> x >= 5" inactive: x keeps its full domain.
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  const VarId b = m.new_bool("b");
  m.add_clause({neg(b)});
  m.add_implies(pos(b), LinExpr(x), Cmp::kGe, 5);
  m.add_linear(LinExpr(x), Cmp::kGe, 2);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 0);
  EXPECT_GE(r.value(x), 2);
}

TEST(SolverSplitTest, EqConstraintUnderMinimizeSplitsToOptimum) {
  // 3x + 5y = 2014 admits no propagation-only fixpoint — the solver must
  // bisect domains under branch-and-bound. Optimum of x + y is 404 at
  // (3, 401): x ≡ 3 (mod 5) and larger x trades 5y for 3x at a loss.
  Model m;
  const VarId x = m.new_int(0, 1000, "x");
  const VarId y = m.new_int(0, 1000, "y");
  m.add_linear(LinExpr(x) * 3 + LinExpr(y) * 5, Cmp::kEq, 2014);
  m.minimize(LinExpr(x) + LinExpr(y));
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 404);
  EXPECT_EQ(r.value(x), 3);
  EXPECT_EQ(r.value(y), 401);
}

TEST(SolverStatusTest, BudgetLimitedMinimizeIsSatNotOptimal) {
  // With a decision budget big enough to find an incumbent but not to
  // finish the optimality proof, minimize must report kSat (feasible,
  // unproven) — kOptimal is reserved for proven optima.
  const Model m = escape_pigeonhole(12);
  Budget limited;
  limited.max_decisions = 400;
  Solver s(m, limited);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_TRUE(r.has_solution());
  EXPECT_GE(r.objective, 1);
}

// ---------------------------------------------------------------------------
// Warm starts, canonical extraction, the repair cache and canonical keys.
// ---------------------------------------------------------------------------

namespace {
Model small_repair_model(std::vector<VarId>* queue = nullptr) {
  // A CEM-shaped miniature: values with per-step targets, an upper bound
  // and a nonzero-count cap; minimise total deviation. `queue`, when given,
  // receives the per-step value variables.
  Model m;
  const std::vector<std::int64_t> target{3, 0, 5, 2, 0, 4};
  LinExpr dev;
  LinExpr nonzero;
  for (std::size_t t = 0; t < target.size(); ++t) {
    const VarId q = m.new_int(0, 6);
    if (queue != nullptr) queue->push_back(q);
    dev = dev + LinExpr(m.add_abs(LinExpr(q) - LinExpr(target[t]), 12));
    const VarId ne = m.new_bool();
    m.add_reified(ne, LinExpr(q), Cmp::kGe, 1);
    nonzero = nonzero + LinExpr(ne);
  }
  m.add_linear(nonzero, Cmp::kLe, 2);
  m.minimize(dev);
  return m;
}
}  // namespace

TEST(SolverWarmStartTest, WarmAndColdProduceIdenticalResults) {
  std::vector<VarId> queue;
  const Model m = small_repair_model(&queue);
  Solver cold(m);
  const auto rc = cold.minimize();
  ASSERT_EQ(rc.status, Status::kOptimal);
  EXPECT_EQ(rc.objective, 5);

  // Warm-start from the cold solution: same status, objective and
  // assignment, with the flag set and no extra incumbent search.
  WarmStart warm;
  for (std::size_t v = 0; v < rc.assignment.size(); ++v) {
    warm.hints.emplace_back(VarId{static_cast<std::int32_t>(v)},
                            rc.assignment[v]);
  }
  Solver w(m);
  const auto rw = w.minimize(warm);
  ASSERT_EQ(rw.status, Status::kOptimal);
  EXPECT_TRUE(rw.warm_started);
  EXPECT_EQ(rw.objective, rc.objective);
  EXPECT_EQ(rw.assignment, rc.assignment);
  EXPECT_LE(rw.decisions, rc.decisions);

  // A feasible but non-optimal hint — every queue step empty, objective 14
  // — is accepted, proves nothing at the root, and branch-and-bound still
  // ends at the cold objective and (by canonical extraction) assignment.
  WarmStart empty;
  for (const VarId q : queue) empty.hints.emplace_back(q, 0);
  Solver e(m);
  const auto re = e.minimize(empty);
  ASSERT_EQ(re.status, Status::kOptimal);
  EXPECT_TRUE(re.warm_started);
  EXPECT_FALSE(re.root_proof);
  EXPECT_EQ(re.objective, rc.objective);
  EXPECT_EQ(re.assignment, rc.assignment);
}

TEST(SolverCounterTest, RootProofsAndExtractionDecisionsAreCounted) {
  // Warm-started from an optimum of x + y >= 5, the cap x + y <= 4 is
  // refuted by root propagation (a root proof), so every decision goes to
  // canonical extraction. smt.root_proofs and smt.extract.decisions add up
  // each solve's share.
  auto& reg = obs::Registry::global();
  obs::Counter& proofs = reg.counter("smt.root_proofs");
  obs::Counter& extract = reg.counter("smt.extract.decisions");
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kGe, 5);
  m.minimize(LinExpr(x) + LinExpr(y));
  WarmStart warm;
  warm.hints = {{x, 5}, {y, 0}};
  const std::int64_t proofs0 = proofs.value();
  const std::int64_t extract0 = extract.value();
  const auto r = Solver(m).minimize(warm);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 5);
  EXPECT_TRUE(r.root_proof);
  EXPECT_GT(r.extract_decisions, 0);
  EXPECT_EQ(r.extract_decisions, r.decisions);
  EXPECT_EQ(proofs.value() - proofs0, 1);
  EXPECT_EQ(extract.value() - extract0, r.extract_decisions);

  // A budget-limited search proves nothing and never reaches extraction.
  Budget limited;
  limited.max_decisions = 400;
  const auto cut = Solver(escape_pigeonhole(12), limited).minimize();
  ASSERT_EQ(cut.status, Status::kSat);
  EXPECT_FALSE(cut.root_proof);
  EXPECT_EQ(cut.extract_decisions, 0);
}

TEST(SolverWarmStartTest, InfeasibleHintsAreDiscarded) {
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, 7);
  m.minimize(LinExpr(x));
  WarmStart bogus;
  bogus.hints.emplace_back(x, 9);
  bogus.hints.emplace_back(y, 9);  // 18 != 7 — not a feasible candidate
  Solver s(m);
  const auto r = s.minimize(bogus);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_FALSE(r.warm_started);
  EXPECT_EQ(r.objective, 0);
  EXPECT_EQ(r.value(x), 0);
  EXPECT_EQ(r.value(y), 7);
}

TEST(SolverWarmStartTest, PartialHintsAreCompletedByPropagation) {
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, 7);
  m.minimize(LinExpr(x) * 3 + LinExpr(y));
  WarmStart partial;
  partial.hints.emplace_back(x, 2);  // y is left to the completion dive
  Solver s(m);
  const auto r = s.minimize(partial);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_TRUE(r.warm_started);
  EXPECT_EQ(r.objective, 7);  // x=0, y=7
}

TEST(SolveCacheTest, HitReturnsIdenticalResultAndCounts) {
  SolveCache::global().clear();
  auto& reg = obs::Registry::global();
  const std::int64_t hits0 = reg.counter("smt.cache.hit").value();
  const std::int64_t miss0 = reg.counter("smt.cache.miss").value();

  const Model m = small_repair_model();
  RepairOptions ro;
  ro.use_cache = true;
  const auto first = repair_minimize(m, ro, nullptr);
  ASSERT_EQ(first.status, Status::kOptimal);
  EXPECT_FALSE(first.from_cache);

  const auto second = repair_minimize(m, ro, nullptr);
  ASSERT_EQ(second.status, Status::kOptimal);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.objective, first.objective);
  EXPECT_EQ(second.assignment, first.assignment);
  EXPECT_EQ(reg.counter("smt.cache.hit").value() - hits0, 1);
  EXPECT_EQ(reg.counter("smt.cache.miss").value() - miss0, 1);
  SolveCache::global().clear();
}

TEST(SolveCacheTest, CacheOffNeverMarksFromCache) {
  SolveCache::global().clear();
  const Model m = small_repair_model();
  RepairOptions ro;
  ro.use_cache = false;
  const auto first = repair_minimize(m, ro, nullptr);
  const auto second = repair_minimize(m, ro, nullptr);
  EXPECT_FALSE(first.from_cache);
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(SolveCache::global().size(), 0u);
}

TEST(CanonicalKeyTest, ConstraintOrderAndNamesDoNotChangeKey) {
  // Same system, different build order and different variable names:
  // identical repair key. Different rhs: different key.
  auto build = [](bool swapped, const char* n0, std::int64_t rhs) {
    Model m;
    const VarId x = m.new_int(0, 10, n0);
    const VarId y = m.new_int(0, 10, "y");
    if (swapped) {
      m.add_linear(LinExpr(x) - LinExpr(y), Cmp::kLe, 1);
      m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, rhs);
    } else {
      m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, rhs);
      m.add_linear(LinExpr(x) - LinExpr(y), Cmp::kLe, 1);
    }
    m.minimize(LinExpr(x));
    return repair_key(m);
  };
  const std::string base = build(false, "x", 7);
  EXPECT_EQ(build(true, "x", 7), base);
  EXPECT_EQ(build(false, "renamed", 7), base);
  EXPECT_NE(build(false, "x", 8), base);
}

namespace {
// Every field the repair key covers, for one small model: two bounded
// integers and two booleans, an unguarded and a guarded constraint, two
// clauses and an objective. The reverse_* flags build the same system with
// terms, literals, clauses or constraints in the opposite order.
struct KeySpec {
  std::int64_t x_hi = 10;
  std::int64_t coef = 2;
  std::int64_t rhs = 7;
  Cmp cmp = Cmp::kLe;
  bool guard_on_b = true;  // the guard variable: b, or else c
  bool guard_value = true;
  bool lit_positive = true;
  std::int64_t obj_coef = 1;
  std::int64_t obj_constant = 0;
  bool reverse_terms = false;
  bool reverse_literals = false;
  bool reverse_clauses = false;
  bool reverse_constraints = false;
};

std::string spec_key(const KeySpec& s) {
  Model m;
  const VarId x = m.new_int(0, s.x_hi, "x");
  const VarId y = m.new_int(-5, 5, "y");
  const VarId b = m.new_bool("b");
  const VarId c = m.new_bool("c");
  LinExpr body;  // coef·x + y, in either order
  LinExpr objective;
  objective.add_constant(s.obj_constant);
  if (s.reverse_terms) {
    body.add_term(1, y).add_term(s.coef, x);
    objective.add_term(1, c).add_term(s.obj_coef, x);
  } else {
    body.add_term(s.coef, x).add_term(1, y);
    objective.add_term(s.obj_coef, x).add_term(1, c);
  }
  const BoolLit guard{s.guard_on_b ? b : c, s.guard_value};
  const auto unguarded = [&] { m.add_linear(body, s.cmp, s.rhs); };
  const auto guarded = [&] {
    m.add_implies(guard, LinExpr(x) - LinExpr(y), Cmp::kGe, 1);
  };
  if (s.reverse_constraints) {
    guarded();
    unguarded();
  } else {
    unguarded();
    guarded();
  }
  std::vector<BoolLit> first{BoolLit{b, s.lit_positive}, neg(c)};
  if (s.reverse_literals) std::reverse(first.begin(), first.end());
  std::vector<std::vector<BoolLit>> clauses{first, {pos(b), pos(c)}};
  if (s.reverse_clauses) std::reverse(clauses.begin(), clauses.end());
  for (auto& clause : clauses) m.add_clause(clause);
  m.minimize(objective);
  return repair_key(m);
}

// The inputs of one CEM window model (impute/cem.cpp's encoding). A
// sampled step's reference is irrelevant to the model, so it is zeroed:
// equal inputs are exactly the ones that pose the same problem.
struct CemInput {
  std::int64_t m_max = 0;
  std::int64_t m_out = 0;
  std::vector<std::int64_t> sample;  // -1 = not sampled
  std::vector<std::int64_t> ref;
  std::vector<std::int64_t> flat() const {
    std::vector<std::int64_t> out{m_max, m_out};
    out.insert(out.end(), sample.begin(), sample.end());
    out.insert(out.end(), ref.begin(), ref.end());
    return out;
  }
};

// Builds the window model with the variables in CEM's order and, when `rng`
// is given, the constraints (and the C3 sum's terms) in a shuffled order.
Model cem_shaped_model(const CemInput& in, fmnet::Rng* rng) {
  Model m;
  const std::size_t f = in.sample.size();
  std::vector<VarId> q;
  std::vector<VarId> nz;
  std::vector<std::pair<VarId, VarId>> abs_vars(f);  // (d, s) per step
  for (std::size_t t = 0; t < f; ++t) q.push_back(m.new_int(0, in.m_max));
  for (std::size_t t = 0; t < f; ++t) nz.push_back(m.new_bool());
  for (std::size_t t = 0; t < f; ++t) {
    if (in.sample[t] >= 0) continue;
    const std::int64_t hi =
        std::max(std::abs(in.ref[t]), std::abs(in.m_max - in.ref[t]));
    abs_vars[t].first = m.new_int(0, hi);
    abs_vars[t].second = m.new_bool();
  }
  std::vector<std::function<void()>> emit;
  LinExpr objective;
  LinExpr ne;
  for (std::size_t t = 0; t < f; ++t) {
    if (in.sample[t] >= 0) {
      emit.push_back(
          [&, t] { m.add_linear(LinExpr(q[t]), Cmp::kEq, in.sample[t]); });
      continue;
    }
    // add_abs's encoding of d = |q - ref|, one emitter per constraint.
    const VarId d = abs_vars[t].first;
    const VarId s = abs_vars[t].second;
    LinExpr dev(q[t]);
    dev.add_constant(-in.ref[t]);
    emit.push_back([&m, s, dev] { m.add_implies(pos(s), dev, Cmp::kGe, 0); });
    emit.push_back([&m, s, d, dev] {
      m.add_implies(pos(s), LinExpr(d) - dev, Cmp::kEq, 0);
    });
    emit.push_back(
        [&m, s, dev] { m.add_implies(neg(s), dev, Cmp::kLe, -1); });
    emit.push_back([&m, s, d, dev] {
      m.add_implies(neg(s), LinExpr(d) + dev, Cmp::kEq, 0);
    });
    objective.add_term(1, d);
  }
  std::vector<std::size_t> order(f);
  std::iota(order.begin(), order.end(), 0);
  if (rng != nullptr) {
    for (std::size_t i = f; i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  rng->uniform_int(0, i - 1))]);
    }
  }
  for (const std::size_t t : order) {
    emit.push_back([&, t] {
      m.add_reified(nz[t], LinExpr(q[t]), Cmp::kGe, 1);
    });
    ne.add_term(1, nz[t]);
  }
  emit.push_back([&] { m.add_linear(ne, Cmp::kLe, in.m_out); });
  if (rng != nullptr) {
    for (std::size_t i = emit.size(); i > 1; --i) {
      std::swap(emit[i - 1], emit[static_cast<std::size_t>(
                                 rng->uniform_int(0, i - 1))]);
    }
  }
  for (const auto& e : emit) e();
  m.minimize(objective);
  return m;
}
}  // namespace

TEST(CanonicalKeyTest, TermClauseAndLiteralOrderDoNotChangeKey) {
  const std::string base = spec_key({});
  KeySpec s;
  s.reverse_terms = true;
  EXPECT_EQ(spec_key(s), base);
  s = {};
  s.reverse_literals = true;
  EXPECT_EQ(spec_key(s), base);
  s = {};
  s.reverse_clauses = true;
  EXPECT_EQ(spec_key(s), base);
  s = {};
  s.reverse_constraints = true;
  EXPECT_EQ(spec_key(s), base);
  s.reverse_terms = s.reverse_literals = s.reverse_clauses = true;
  EXPECT_EQ(spec_key(s), base);
  EXPECT_EQ(base.size(), 32u);
}

TEST(CanonicalKeyTest, EverySingleFieldMutationChangesKey) {
  const std::vector<std::pair<const char*, void (*)(KeySpec&)>> mutations = {
      {"bound", [](KeySpec& s) { s.x_hi = 11; }},
      {"coefficient", [](KeySpec& s) { s.coef = 3; }},
      {"rhs", [](KeySpec& s) { s.rhs = 8; }},
      {"cmp", [](KeySpec& s) { s.cmp = Cmp::kGe; }},
      {"guard variable", [](KeySpec& s) { s.guard_on_b = false; }},
      {"guard value", [](KeySpec& s) { s.guard_value = false; }},
      {"literal sign", [](KeySpec& s) { s.lit_positive = false; }},
      {"objective term", [](KeySpec& s) { s.obj_coef = 2; }},
      {"objective constant", [](KeySpec& s) { s.obj_constant = 1; }},
  };
  std::set<std::string> keys{spec_key({})};
  for (const auto& [field, mutate] : mutations) {
    KeySpec s;
    mutate(s);
    EXPECT_TRUE(keys.insert(spec_key(s)).second) << field;
  }
}

TEST(CanonicalKeyTest, RandomCemModelsCollideExactlyWhenInputsAreEqual) {
  // Small input ranges, so that many of the 10,000 draws repeat an earlier
  // input; each draw is also rebuilt in a shuffled constraint order.
  fmnet::Rng rng(20261018);
  std::map<std::vector<std::int64_t>, std::string> key_of_input;
  std::map<std::string, std::vector<std::int64_t>> input_of_key;
  int repeats = 0;
  for (int draw = 0; draw < 10'000; ++draw) {
    CemInput in;
    const auto f = static_cast<std::size_t>(rng.uniform_int(2, 3));
    in.m_max = rng.uniform_int(0, 3);
    in.m_out = rng.uniform_int(0, static_cast<std::int64_t>(f));
    for (std::size_t t = 0; t < f; ++t) {
      const bool sampled = rng.bernoulli(0.3);
      in.sample.push_back(sampled ? rng.uniform_int(0, in.m_max) : -1);
      in.ref.push_back(sampled ? 0 : rng.uniform_int(-1, 3));
    }
    const std::string key = repair_key(cem_shaped_model(in, nullptr));
    ASSERT_EQ(repair_key(cem_shaped_model(in, &rng)), key) << "draw " << draw;
    const auto [it, fresh] = key_of_input.emplace(in.flat(), key);
    if (!fresh) {
      ++repeats;
      EXPECT_EQ(it->second, key) << "draw " << draw;
    }
    const auto [jt, new_key] = input_of_key.emplace(key, in.flat());
    EXPECT_TRUE(new_key || jt->second == in.flat())
        << "distinct inputs share a key at draw " << draw;
  }
  EXPECT_GT(repeats, 1000);
  EXPECT_EQ(key_of_input.size(), input_of_key.size());
}

std::vector<RandomInstance> make_instances() {
  std::vector<RandomInstance> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    out.push_back({3 + static_cast<int>(seed % 3),
                   2 + static_cast<int>(seed % 4), seed * 7919});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    RandomLIA, RandomCrossCheck, ::testing::ValuesIn(make_instances()),
    [](const ::testing::TestParamInfo<RandomInstance>& pinfo) {
      std::string name = "v";
      name += std::to_string(pinfo.param.num_vars);
      name += "c";
      name += std::to_string(pinfo.param.num_constraints);
      name += "s";
      name += std::to_string(pinfo.param.seed);
      return name;
    });

}  // namespace
}  // namespace fmnet::smt
