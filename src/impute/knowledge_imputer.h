// The paper's full system (Fig. 3): Transformer (+KAL) followed by the
// Constraint Enforcement Module — the "Transformer+KAL+CEM" column of
// Table 1.
#pragma once

#include <memory>

#include "impute/cem.h"
#include "impute/imputer.h"

namespace fmnet::impute {

/// Wraps any base imputer and corrects its output with CEM. The composite
/// output satisfies C1–C3 exactly (feasibility is guaranteed for
/// measurements produced by a real switch, since the ground truth is a
/// witness). It repairs whole windows only: an example with a nonzero
/// output_from (an online window) is rejected with a CheckError, since
/// serve::ServeCore repairs the interval it publishes through its own
/// repair lane.
class KnowledgeAugmentedImputer : public Imputer {
 public:
  /// `pool` is forwarded to CEM so windows are corrected concurrently
  /// (null = global pool); it must outlive the imputer.
  KnowledgeAugmentedImputer(std::shared_ptr<Imputer> base,
                            CemConfig cem_config = {},
                            util::ThreadPool* pool = nullptr);

  std::string name() const override { return base_->name() + "+CEM"; }
  /// Fitting trains the wrapped base model; CEM itself has no parameters.
  void fit(const std::vector<ImputationExample>& examples,
           util::ThreadPool* pool = nullptr) override {
    base_->fit(examples, pool);
  }
  std::vector<double> impute(const ImputationExample& ex) override;
  /// Batches the base model's forward pass (one lane-parallel call when
  /// the base supports it), then CEM-corrects the windows concurrently on
  /// the pool. Outputs and counters equal the per-window impute() loop's.
  /// Same as repair_batch(base->impute_batch(batch), batch).
  std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) override;

  /// CEM repair of outputs the base already produced: base_outputs[i] is
  /// the base's imputation of batch[i]. Windows repair concurrently on the
  /// pool and the counters advance in window order, so a caller that has
  /// forwarded the base once can score both "x" and "x+cem" from that one
  /// forward with impute_batch's exact outputs and counters.
  std::vector<std::vector<double>> repair_batch(
      const std::vector<std::vector<double>>& base_outputs,
      const std::vector<ImputationExample>& batch);

  /// Wall-clock seconds spent inside CEM across all impute() and
  /// impute_batch() windows, and the window count — used by
  /// bench/table1_downstream.
  double total_cem_seconds() const { return total_cem_seconds_; }
  std::int64_t cem_calls() const { return cem_calls_; }
  /// Number of windows whose constraint system was infeasible (should stay
  /// zero on simulator-produced measurements).
  std::int64_t infeasible_windows() const { return infeasible_; }

 private:
  /// Adds one repaired window to the counters; returns its output.
  std::vector<double> tally(CemResult r);

  std::shared_ptr<Imputer> base_;
  ConstraintEnforcementModule cem_;
  util::ThreadPool* pool_ = nullptr;
  double total_cem_seconds_ = 0.0;
  std::int64_t cem_calls_ = 0;
  std::int64_t infeasible_ = 0;
};

}  // namespace fmnet::impute
