// The simplest baseline: piecewise-linear interpolation through the known
// anchor points — periodic samples at interval starts and the LANZ maximum
// placed at each interval's midpoint (the same placement §4 uses to feed
// the max to IterativeImputer). This reproduces the qualitative behaviour
// of Fig. 4a: it "learns nothing from the auxiliary time series and simply
// connects periodic and maximum queue values".
#pragma once

#include "impute/imputer.h"

namespace fmnet::impute {

class LinearInterpImputer : public Imputer {
 public:
  /// `pool` spreads impute_batch's windows (null = global pool); it must
  /// outlive the imputer.
  explicit LinearInterpImputer(util::ThreadPool* pool = nullptr)
      : pool_(pool) {}

  std::string name() const override { return "LinearInterp"; }
  std::vector<double> impute(const ImputationExample& ex) override;
  std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) override {
    return impute_each(batch, pool_);
  }

 private:
  util::ThreadPool* pool_;
};

}  // namespace fmnet::impute
