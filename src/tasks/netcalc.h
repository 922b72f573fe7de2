// C4: a network-calculus worst-case backlog bound (row j of Table 1).
//
// C1–C3 check the imputed series against *measurements*; C4 checks it
// against *analysis*: deterministic network calculus bounds the backlog of
// a queue served at rate R (service curve β(t) = R·[t−T]⁺, latency T) and
// fed by a (σ, ρ) token-bucket arrival curve α(t) = σ + ρt by
//
//   B* = sup_{t≥0} (α(t) − β(t)) = σ + ρT + [ρ − R]⁺ · (H − T)
//
// over a finite horizon H (the backlog at t is at most the arrivals in
// [0, t] minus the guaranteed service; the supremum of the difference of
// the two curves is reached either at t = T or, when the arrival rate
// exceeds the service rate, grows linearly until the horizon). The switch's
// shared buffer caps occupancy physically, so the reported bound is
// additionally min'd with the buffer size — which also makes the default
// scenario (no arrival-curve keys set) sound: with no envelope knowledge
// the only worst-case bound is the buffer itself.
//
// An imputed series whose per-interval maximum exceeds B* claims a backlog
// no admissible arrival process could have produced — a formal-methods
// inconsistency of exactly the C1 kind, and constraints::Checker reports,
// normalises and fault-exempts it the same way.
#pragma once

namespace fmnet::tasks {

/// Scenario-level arrival-curve/latency parameters (metrics.c4.* keys).
/// Zeros mean "no envelope known": the bound collapses to the buffer cap.
struct C4Config {
  /// Token-bucket burst allowance σ, in packets.
  double arrival_burst = 0.0;
  /// Token-bucket sustained rate ρ, in packets per millisecond.
  double arrival_rate = 0.0;
  /// Rate-latency service-curve latency T, in milliseconds.
  double latency_ms = 1.0;
};

/// Worst-case backlog bound B* in packets. `service_rate_pkts_per_ms` is
/// the guaranteed drain rate R (for FMNet switches: slots_per_ms — one
/// packet per slot), `buffer_cap_pkts` the shared buffer size, and
/// `horizon_ms` the window over which the ρ > R excess can accumulate.
double c4_backlog_bound(const C4Config& config,
                        double service_rate_pkts_per_ms,
                        double buffer_cap_pkts, double horizon_ms);

}  // namespace fmnet::tasks
