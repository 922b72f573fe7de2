// Telemetry fault injection: deterministic, seed-streamed degradation of
// the coarse telemetry between simulate and prepare.
//
// The paper assumes an operator who can only see coarse telemetry; real
// collection of that telemetry is itself lossy. This subsystem models the
// common failure modes of the three tools:
//
//   * periodic sampling — polls silently missed (stale carry-forward);
//   * LANZ              — reports dropped in transit, or delivered one
//                         interval late (the late maximum merges into the
//                         next interval's report);
//   * SNMP              — polling-boundary jitter (counts slip between
//                         adjacent intervals) and fixed-width counter wrap
//                         (readings are diffs of a cumulative counter mod
//                         2^bits, so a wrap shows up as a negative spike);
//   * transport         — records duplicated (a stale copy overwrites the
//                         next report) or reordered (adjacent swaps);
//   * measurement       — Gaussian noise and quantisation on the queue
//                         length channels.
//
// Each fault is a composable Injector. Injection is canonical: the
// pipeline is always applied in the fixed InjectorKind order regardless of
// construction order, and every (injector, series) pair draws from its own
// derive_stream_seed stream, so the faulted telemetry is a pure function
// of (clean telemetry, FaultConfig) at any thread count.
//
// Downstream semantics: injectors that *lose* a report record it in
// telemetry::TelemetryQuality, turning C1/C2 into interval constraints
// (KAL, CEM and the Table-1 checker honour window_max_valid through
// constraints::ExampleConstraints::c1_binds, and dropped periodic samples
// simply emit no C2 equality). Injectors that *corrupt* a
// value in a plausible way (duplicate, reorder, noise, quantise) leave the
// masks untouched — the operator cannot detect those, which is exactly the
// robustness hazard the sweep in core/robustness.h measures. Counter wrap
// is recoverable: wrap_correct() restores non-negative per-interval counts
// (exactly, whenever true per-interval counts stay below 2^bits), which is
// how C3 consumes wrapped SNMP counters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/monitors.h"
#include "util/thread_pool.h"

namespace fmnet::faults {

/// Declarative fault configuration, one field per scenario `faults.*` key.
/// All rates are per-report probabilities in [0,1]; `severity` scales every
/// rate and the noise magnitude (clamped back into [0,1]), so a severity
/// sweep moves one knob. severity == 0 disables everything.
struct FaultConfig {
  /// Root of every injector's seed streams (independent of campaign.seed).
  std::uint64_t seed = 0;
  /// Global scale applied to all rates and to `noise`; 0 = clean.
  double severity = 1.0;
  /// P(periodic sample missed) per (queue, interval); missed samples hold
  /// the last surviving value and emit no C2 constraint.
  double periodic_drop = 0.0;
  /// P(LANZ report dropped) per (queue, interval); dropped reports hold
  /// the last surviving value and invalidate the interval's C1 bound.
  double lanz_drop = 0.0;
  /// P(LANZ report one interval late): the origin interval shows a stale
  /// value (C1 invalidated), the late max merges into the next interval's
  /// report (which stays a sound upper bound).
  double lanz_late = 0.0;
  /// P(SNMP poll boundary slips) per (port, boundary): a fraction of the
  /// next interval's counts is attributed to the current one, jointly for
  /// sent/dropped/received.
  double snmp_jitter = 0.0;
  /// SNMP counter width in bits (1..32); readings become diffs of a
  /// cumulative counter mod 2^bits. 0 = off. Structural (not severity
  /// scaled) but disabled at severity 0.
  std::int64_t snmp_wrap_bits = 0;
  /// P(record overwritten by a duplicate of its predecessor) per report.
  double duplicate = 0.0;
  /// P(adjacent records swapped) per report boundary.
  double reorder = 0.0;
  /// Gaussian noise stddev (packets) on periodic/LANZ values.
  double noise = 0.0;
  /// Quantisation step (packets) for periodic/LANZ values; <= 1 = off.
  /// Structural (not severity scaled) but disabled at severity 0.
  std::int64_t quantize = 0;

  /// True when any injector would actually perturb telemetry. Scenario
  /// canonicalisation emits `faults.*` keys (and the engine switches to
  /// the masked dataset format) only when this holds, so a clean scenario
  /// is byte-identical to one that never mentions faults.
  bool enabled() const;

  /// The same faults at a different severity (for sweeps).
  FaultConfig at_severity(double s) const {
    FaultConfig c = *this;
    c.severity = s;
    return c;
  }

  /// severity-scaled rate/magnitude accessors (rates clamped to [0,1]).
  double rate(double r) const;
  double noise_stddev() const;
};

/// Canonical application order (transport faults, then measurement faults,
/// then value faults). Also each injector's seed-stream discriminator.
enum class InjectorKind : std::uint32_t {
  kReorder = 0,
  kDuplicate = 1,
  kPeriodicDrop = 2,
  kLanzDrop = 3,
  kLanzLate = 4,
  kSnmpJitter = 5,
  kSnmpWrap = 6,
  kNoise = 7,
  kQuantize = 8,
};

const char* injector_name(InjectorKind kind);

/// Telemetry after injection: the perturbed coarse series plus the
/// validity masks. `quality` is non-empty iff at least one injector ran.
struct FaultedTelemetry {
  telemetry::CoarseTelemetry coarse;
  telemetry::TelemetryQuality quality;
};

/// One composable fault. Implementations derive all randomness from
/// streams rooted at (seed, kind, series index), so the output is
/// independent of both the thread count and which other injectors run.
class Injector {
 public:
  explicit Injector(InjectorKind kind) : kind_(kind) {}
  virtual ~Injector() = default;

  InjectorKind kind() const { return kind_; }
  const char* name() const { return injector_name(kind_); }

  virtual void apply(FaultedTelemetry& t, std::uint64_t seed,
                     util::ThreadPool& pool) const = 0;

 private:
  InjectorKind kind_;
};

using InjectorList = std::vector<std::unique_ptr<Injector>>;

/// Builds the active injectors of `config`, already in canonical order.
/// Empty when config.enabled() is false.
InjectorList make_injectors(const FaultConfig& config);

/// Sorts a pipeline into canonical InjectorKind order (stable, so a
/// shuffled list of independent injectors applies identically).
void canonicalize(InjectorList& pipeline);

/// Applies a pipeline (canonicalised first) to clean telemetry. Masks are
/// initialised all-valid iff the pipeline is non-empty. Deterministic at
/// any thread count (null pool = global pool).
FaultedTelemetry inject(const telemetry::CoarseTelemetry& clean,
                        InjectorList pipeline, std::uint64_t seed,
                        util::ThreadPool* pool = nullptr);

/// Convenience: make_injectors(config) + inject with config.seed.
FaultedTelemetry inject(const telemetry::CoarseTelemetry& clean,
                        const FaultConfig& config,
                        util::ThreadPool* pool = nullptr);

/// Degradation-aware recovery of wrapped SNMP counters: maps every
/// per-interval reading d to ((d mod 2^bits) + 2^bits) mod 2^bits, which
/// equals the true count whenever that count is below 2^bits. The prepare
/// stage runs this before building C3 constraints.
void wrap_correct(telemetry::CoarseTelemetry& ct, std::int64_t bits);

}  // namespace fmnet::faults
