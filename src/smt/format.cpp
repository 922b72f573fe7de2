#include "smt/format.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace fmnet::smt {

namespace {
const char* cmp_str(Cmp c) {
  switch (c) {
    case Cmp::kLe:
      return "<=";
    case Cmp::kGe:
      return ">=";
    case Cmp::kEq:
      return "=";
  }
  return "?";
}

void render_terms(std::ostringstream& os, std::span<const Term> terms,
                  const Model& m) {
  os << "(+";
  for (const auto& [coef, var] : terms) {
    os << " (* " << coef << " " << m.name(VarId{var}) << ")";
  }
  os << ")";
}
}  // namespace

std::string to_smtlib(const Model& model) {
  std::ostringstream os;
  for (std::size_t v = 0; v < model.num_vars(); ++v) {
    const VarId id{static_cast<std::int32_t>(v)};
    os << "(declare-const " << model.name(id) << " Int)  ; ["
       << model.lower_bound(id) << ", " << model.upper_bound(id) << "]\n";
  }
  for (const LinearConstraint& c : model.linear_constraints()) {
    os << "(assert ";
    if (c.guard_var >= 0) {
      os << "(=> (= " << model.name(VarId{c.guard_var}) << " "
         << (c.guard_value ? 1 : 0) << ") ";
    }
    os << "(" << cmp_str(c.cmp) << " ";
    render_terms(os, model.terms(c), model);
    os << " " << c.rhs << ")";
    if (c.guard_var >= 0) os << ")";
    os << ")\n";
  }
  for (const auto& clause : model.clauses()) {
    os << "(assert (or";
    for (const BoolLit& l : clause) {
      if (l.positive) {
        os << " (= " << model.name(l.var) << " 1)";
      } else {
        os << " (= " << model.name(l.var) << " 0)";
      }
    }
    os << "))\n";
  }
  if (model.has_objective()) {
    os << "(minimize (+ " << model.objective().constant();
    for (const auto& [coef, var] : model.objective().terms()) {
      os << " (* " << coef << " " << model.name(var) << ")";
    }
    os << "))\n";
  }
  return os.str();
}

namespace {

// The repair key folds 64-bit words into two independent lanes, each a
// full-avalanche finalizer over (state XOR word): splitmix64's for lane a,
// MurmurHash3's fmix64 for lane b. Distinct mixers and offsets keep the
// lanes independent, so the 128-bit key collides only when both do.
std::uint64_t mix_a(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix_b(std::uint64_t x) {
  x += 0xd1b54a32d192ed03ULL;
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

struct Digest {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator<(const Digest& x, const Digest& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  }
};

// A 128-bit digest of a word sequence. The first word's low byte tags the
// kind of record (constraint, clause, model), so records of different
// kinds never alias.
class Folder {
 public:
  explicit Folder(std::uint64_t tag) { add(tag); }
  void add(std::uint64_t v) {
    d_.a = mix_a(d_.a ^ v);
    d_.b = mix_b(d_.b ^ v);
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  const Digest& digest() const { return d_; }

 private:
  Digest d_;
};

// A term as the key orders it: (variable, coefficient).
using KeyTerm = std::pair<std::int64_t, std::int64_t>;
KeyTerm key_term(const Term& t) { return {t.second, t.first}; }
KeyTerm key_term(const std::pair<std::int64_t, VarId>& t) {
  return {t.second.id, t.first};
}

// Folds a term list in (variable, coefficient) order.
template <typename Terms>
void fold_terms(Folder& f, const Terms& terms,
                std::vector<KeyTerm>& scratch) {
  scratch.clear();
  for (const auto& t : terms) scratch.push_back(key_term(t));
  std::sort(scratch.begin(), scratch.end());
  f.add(scratch.size());
  for (const auto& [var, coef] : scratch) {
    f.add_signed(var);
    f.add_signed(coef);
  }
}

enum : std::uint64_t {
  kTagModel = 0x736d746c6974652eULL,  // "smtlite."
  kTagConstraint = 1,
  kTagClause = 2,
};

}  // namespace

std::string repair_key(const Model& model) {
  std::vector<KeyTerm> scratch;

  std::vector<Digest> digests;
  digests.reserve(model.linear_constraints().size());
  for (const LinearConstraint& c : model.linear_constraints()) {
    // One header word: tag, cmp and guard side in the low bits, the guard
    // variable (-1 = unguarded) in the high 32.
    Folder f(kTagConstraint | static_cast<std::uint64_t>(c.cmp) << 8 |
             std::uint64_t{c.guard_value} << 10 |
             std::uint64_t{static_cast<std::uint32_t>(c.guard_var)} << 32);
    f.add_signed(c.rhs);
    fold_terms(f, model.terms(c), scratch);
    digests.push_back(f.digest());
  }

  Folder key(kTagModel);
  const std::size_t n = model.num_vars();
  key.add(n);
  for (std::size_t v = 0; v < n; ++v) {
    key.add_signed(model.lower_bounds()[v]);
    key.add_signed(model.upper_bounds()[v]);
  }
  const auto fold_sorted = [&key](std::vector<Digest>& ds) {
    std::sort(ds.begin(), ds.end());
    key.add(ds.size());
    for (const Digest& d : ds) {
      key.add(d.a);
      key.add(d.b);
    }
  };
  fold_sorted(digests);

  digests.clear();
  for (const auto& clause : model.clauses()) {
    scratch.clear();
    for (const BoolLit& l : clause) {
      scratch.emplace_back(l.var.id, l.positive ? 1 : 0);
    }
    std::sort(scratch.begin(), scratch.end());
    Folder f(kTagClause);
    f.add(scratch.size());
    for (const auto& [var, positive] : scratch) {
      f.add_signed(var);
      f.add_signed(positive);
    }
    digests.push_back(f.digest());
  }
  fold_sorted(digests);

  key.add(model.has_objective() ? 1 : 0);
  if (model.has_objective()) {
    key.add_signed(model.objective().constant());
    fold_terms(key, model.objective().terms(), scratch);
  }

  char hex[33];
  std::snprintf(hex, sizeof(hex), "%016llx%016llx",
                static_cast<unsigned long long>(key.digest().a),
                static_cast<unsigned long long>(key.digest().b));
  return std::string(hex);
}

}  // namespace fmnet::smt
