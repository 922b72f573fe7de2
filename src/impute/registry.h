// Imputer registry: constructs any imputation method by name, so scenario
// configs, the CLI and the benches select methods with strings instead of
// #include-and-construct.
//
// Base method names:
//
//   linear       — piecewise-linear through the telemetry anchors
//   iterative    — MICE-style IterativeImputer (paper §4 baseline)
//   mlp          — pointwise MLP (architecture ablation)
//   gru          — bidirectional GRU (architecture ablation)
//   rate         — physics-informed rate transformer (§5)
//   transformer  — encoder transformer, EMD loss
//   transformer+kal — transformer with the Knowledge-Augmented Loss (§3.1)
//   autoencoder  — encoder/decoder MLP over the flattened window with a
//                  fixed-weight kal_penalty term (second model family)
//   fm           — FM-alone: any feasible witness of the C1–C3 constraint
//                  system per interval, found with the smtlite engine and no
//                  learned model at all (§2.3)
//
// Any trainable base accepts a "+cem" suffix ("transformer+kal+cem",
// "rate+cem", ...), wrapping it in the Constraint Enforcement Module. The
// returned imputers are untrained; call Imputer::fit() with the training
// split (a no-op for the analytical methods).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "impute/cem.h"
#include "impute/imputer.h"
#include "impute/model_imputer.h"
#include "impute/networks.h"
#include "nn/transformer.h"

namespace fmnet::impute {

/// Everything a method constructor may need. Methods read only their slice
/// (e.g. `linear` ignores all of it), so one params struct describes the
/// whole scenario grid.
struct MethodParams {
  nn::TransformerConfig model;
  /// Training of every learned method.
  TrainConfig train;
  /// Autoencoder architecture; its `window` must match the dataset window
  /// length (the engine sets it from the scenario's data.window-ms).
  AutoencoderConfig autoencoder;
  CemConfig cem;
  /// Forwarded to every method's batched inference (the sharded forward
  /// of every learned method, the analytical baselines' per-window loops)
  /// and to CEM wrappers, so windows are imputed and corrected
  /// concurrently; must outlive the imputer. null = global pool.
  util::ThreadPool* pool = nullptr;
};

/// A constructed method. `trainable` is non-null for every learned method
/// (mlp, gru, rate, transformer, transformer+kal, autoencoder), whose
/// weights checkpoint via nn::serialize — it aliases the model imputer
/// inside `imputer` (through any CEM wrapper).
struct BuiltImputer {
  std::shared_ptr<Imputer> imputer;
  std::shared_ptr<ModelImputer> trainable;
};

class Registry {
 public:
  /// Every accepted method name (bases and their +cem forms), in canonical
  /// evaluation order.
  static const std::vector<std::string>& known_methods();
  static bool is_known(const std::string& name);

  /// `name` without a trailing "+cem". CEM has no trainable parameters, so
  /// a method and its +cem form share training state (and therefore share
  /// engine checkpoints).
  static std::string base_method(const std::string& name);

  /// Constructs `name` from `params`. Throws CheckError on unknown names.
  static BuiltImputer build(const std::string& name,
                            const MethodParams& params);

  /// Wraps an already-built (typically fitted) method in CEM, sharing the
  /// base instance — so evaluating "x" and "x+cem" trains x only once.
  static BuiltImputer with_cem(const BuiltImputer& base,
                               const MethodParams& params);

  /// Convenience: build().imputer.
  static std::shared_ptr<Imputer> create(const std::string& name,
                                         const MethodParams& params);
};

}  // namespace fmnet::impute
