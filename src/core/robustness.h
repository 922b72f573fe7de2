// Robustness sweep: how gracefully does each imputation method degrade as
// telemetry faults (faults/faults.h) get worse?
//
// The sweep runs a scenario's method list across a grid of fault
// severities. For each severity v, the scenario's fault config is rescaled
// with FaultConfig::at_severity(v), the telemetry is re-degraded, every
// method is refit on the faulted training split, and its imputations on
// the faulted test split are scored against the *clean* fine-grained
// ground truth (which fault injection never touches). Severity 0 disables
// injection entirely, so the v = 0 row reproduces the clean pipeline
// bit-for-bit — the natural baseline of every curve.
//
// Metrics, both in packets, averaged over test examples:
//   emd — mean |cumulative-sum difference| between imputed and true
//         series (the 1-D earth-mover's distance under equal masses; the
//         paper's Table-1 headline metric, row a);
//   mae — mean |pointwise difference|.
//
// Everything is deterministic: the sweep reuses the engine's staged
// simulate/prepare/train caches, fault injection is seed-streamed, and
// examples are scored in a fixed order — the same scenario and seed
// produce byte-identical BENCH_robustness.json at any thread count.
#pragma once

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"

namespace fmnet::core {

/// One (method, severity) point of the sweep.
struct RobustnessPoint {
  std::string method;
  double severity = 0.0;
  double emd = 0.0;  // packets
  double mae = 0.0;  // packets
};

/// The full sweep result: the severity grid, the method list, and one
/// point per (severity, method) in severity-major order.
struct RobustnessCurves {
  std::string scenario_name;
  std::vector<double> severities;
  std::vector<std::string> methods;
  std::vector<RobustnessPoint> points;
};

/// Runs the sweep. The campaign is simulated (or cache-loaded) once;
/// each severity re-prepares the dataset and runs the engine's method
/// loop (Engine::impute_methods): every base refit and forwarded once,
/// batched, with "x+cem" repaired from x's outputs. `severities` must be
/// non-empty; values must be >= 0.
RobustnessCurves run_robustness_sweep(Engine& engine, const Scenario& s,
                                      const std::vector<double>& severities);

/// Canonical JSON serialisation (schema "fmnet.robustness.v1"): fixed key
/// order, %.17g doubles — byte-identical across runs of the same sweep.
std::string robustness_json(const RobustnessCurves& curves);

/// Writes robustness_json(curves) to `path`. Throws CheckError on I/O
/// failure.
void write_robustness_json(const RobustnessCurves& curves,
                           const std::string& path);

}  // namespace fmnet::core
