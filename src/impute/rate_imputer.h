// Physics-informed rate imputation — the paper's §5 "other means of
// integrating network knowledge": instead of imputing queue lengths
// directly, the model outputs an *intermediate physical quantity* (the
// per-step net inflow), and the queue length is derived through the known
// queue-evolution law
//
//     q[0] = first periodic sample,   q[t+1] = max(0, q[t] + net[t])
//
// (a Lindley recursion). Non-negativity and bounded slope are then
// guaranteed *by construction* rather than learned, and gradients flow
// through the recursion during training. CEM can still be stacked on top
// for measurement consistency.
#pragma once

#include <memory>

#include "impute/imputer.h"
#include "impute/training.h"
#include "nn/transformer.h"

namespace fmnet::impute {

struct RateImputerConfig {
  nn::TransformerConfig model;
  /// Maximum |net inflow| per fine step, in normalised queue units —
  /// encodes the port-rate physical bound.
  float max_step_delta = 0.5f;
};

class PhysicsRateImputer : public CheckpointableImputer {
 public:
  PhysicsRateImputer(RateImputerConfig config, TrainConfig train_config);

  std::string name() const override { return "RateTransformer"; }
  void fit(const std::vector<ImputationExample>& examples,
           util::ThreadPool* pool = nullptr) override;
  std::vector<double> impute(const ImputationExample& ex) override;

  nn::ImputationTransformer& model() override { return *rate_net_; }

 private:
  /// Derives [B, T] queue lengths from features via `net`'s rate
  /// prediction + Lindley recursion. `q0`: [B] initial lengths
  /// (normalised); `dropout` feeds the net's dropout in training mode.
  tensor::Tensor derive_queues(const nn::ImputationTransformer& net,
                               const tensor::Tensor& x,
                               const std::vector<float>& q0,
                               fmnet::Rng& dropout) const;

  RateImputerConfig config_;
  TrainConfig train_config_;
  fmnet::Rng rng_;
  std::unique_ptr<nn::ImputationTransformer> rate_net_;
};

}  // namespace fmnet::impute
