// The switch constraints of paper §3, declared once.
//
// KAL trains toward them (nn/kal.h), CEM enforces them exactly
// (impute/cem.h), and Table 1 scores them (core/evaluation.h). Every one of
// those readers takes the record and the exemption rule from here:
//
//   C1 (max):       max_{t in interval w} Q̂[t] <= m_max_w    (upper bound)
//   C2 (periodic):  Q̂[t] = m_len_t for sampled t                (equality)
//   C3 (work conservation): #{t in w : Q̂[t] > 0} <= m_out_w   (inequality)
//   C4 (backlog):   max_{t in w} Q̂[t] <= B*, the network-calculus bound
//                   (tasks/netcalc.h)
//
// C1 is an upper bound, not an equality: LANZ reports the slot-granularity
// intra-interval maximum, while the imputed series lives on the per-ms
// grid, so a peak reached and drained between two ms boundaries can
// legitimately exceed every per-ms value — demanding attainment would make
// the ground truth itself infeasible.
//
// Fault exemption (the one rule, c1_binds): when fault injection
// (src/faults) loses an interval's LANZ report, the interval's
// window_max is a stale carry-forward rather than a bound, so neither C1
// nor C4 binds there. C1 becomes an *interval* constraint, binding exactly
// where the report survived.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace fmnet::constraints {

/// Constraint data for one (queue, window) example, in the model's
/// normalised units (queue lengths divided by the dataset's qlen_scale).
struct ExampleConstraints {
  /// C2: fine-step indices that were periodically sampled, and the sampled
  /// values.
  std::vector<std::int64_t> sample_idx;
  std::vector<float> sample_val;
  /// C1: per-coarse-interval maximum queue length (LANZ); an upper bound
  /// on every fine step of the interval.
  std::vector<float> window_max;
  /// C1 validity per coarse interval: empty = every LANZ report survived
  /// (the clean-telemetry case); 0 = the report was lost (see c1_binds).
  std::vector<std::uint8_t> window_max_valid;
  /// C3: per-coarse-interval packets sent by the port (SNMP), expressed in
  /// "fine steps" units (i.e. already min'd with the interval length).
  std::vector<float> port_sent;
  /// Fine steps per coarse interval.
  std::int64_t coarse_factor = 50;
  /// Sharpness k of KAL's tanh soft non-emptiness indicator. Should be
  /// large enough that one packet's worth of normalised queue length
  /// saturates.
  float ne_tanh_scale = 200.0f;

  /// Checks every field against a window of `t_len` fine steps and
  /// returns its interval count. Throws CheckError naming the first
  /// malformed field.
  std::int64_t check_shape(std::int64_t t_len) const;

  /// Whether C1 (and C4) bind on interval `w`: everywhere, except where
  /// the interval's LANZ report was lost.
  bool c1_binds(std::int64_t w) const {
    return window_max_valid.empty() ||
           window_max_valid[static_cast<std::size_t>(w)] != 0;
  }
};

/// Violation mass and normaliser of one constraint, summed over windows.
struct Mass {
  double violation = 0.0;
  double norm = 0.0;
  double error(double eps = 1e-9) const { return violation / (norm + eps); }
};

/// Checks final (non-differentiable) series against their records, with a
/// hard non-emptiness test. Each Mass is one Table-1 row:
///   c1 (a):  Σ_w relu(max_w − m_max_w)           / Σ_w m_max_w
///   c2 (b):  Σ_s |q[t_s] − m_len_s|               / Σ_s max(m_len_s, m_max
///                                                   of s's interval)
///   c3 (c):  Σ_w relu(NE_w − m_out_w)             / Σ_w m_out_w
///   c4 (j):  Σ_w relu(max_w − B*)                 / Σ_w B*
/// C1 and C4 skip intervals where c1_binds is false, in violation and
/// normaliser alike. Row b's normaliser reads window_max even there:
/// periodic samples are frequently zero, so the interval maximum provides
/// the characteristic queue scale whether or not it bounds the interval.
struct Checker {
  Mass c1;
  Mass c2;
  Mass c3;
  Mass c4;

  /// Adds one window; `series` in the record's units. C4 is checked only
  /// when `c4_bound` (same units) is given.
  void add(const std::vector<double>& series, const ExampleConstraints& c,
           std::optional<double> c4_bound = std::nullopt);

  /// C1–C3 all hold to within `tol` violation mass.
  bool satisfied(double tol = 1e-6) const {
    return c1.violation <= tol && c2.violation <= tol &&
           c3.violation <= tol;
  }
};

}  // namespace fmnet::constraints
