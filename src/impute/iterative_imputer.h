// IterativeImputer baseline (paper §4, after scikit-learn's
// IterativeImputer): the queue length is treated as a feature with missing
// values — observed only at the periodic samples and at the interval
// midpoints where the LANZ maximum is placed — and is modelled as a linear
// (ridge) function of the other features, refit iteratively (MICE-style).
// Temporal context enters through lagged neighbours (q[t-1], q[t+1]) as
// predictors, which is what makes the iteration converge to a smooth
// interpolation informed by the SNMP counters.
#pragma once

#include "impute/imputer.h"

namespace fmnet::impute {

struct IterativeImputerConfig {
  int rounds = 12;
  double ridge_lambda = 1e-3;
};

class IterativeImputer : public Imputer {
 public:
  /// `pool` spreads impute_batch's windows (null = global pool); it must
  /// outlive the imputer.
  explicit IterativeImputer(IterativeImputerConfig config = {},
                            util::ThreadPool* pool = nullptr)
      : config_(config), pool_(pool) {}

  std::string name() const override { return "IterImputer"; }
  std::vector<double> impute(const ImputationExample& ex) override;
  std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) override {
    return impute_each(batch, pool_);
  }

 private:
  IterativeImputerConfig config_;
  util::ThreadPool* pool_;
};

}  // namespace fmnet::impute
