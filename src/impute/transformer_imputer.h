// Transformer-based telemetry imputation (paper §2.2 and Fig. 3): an
// encoder-only transformer ingests the per-step coarse features and emits
// the fine-grained queue-length series; trained with EMD loss, optionally
// augmented with the Knowledge-Augmented Loss (§3.1).
#pragma once

#include <memory>

#include "impute/imputer.h"
#include "impute/training.h"
#include "nn/transformer.h"
#include "util/thread_pool.h"

namespace fmnet::impute {

struct TrainStats {
  std::vector<float> epoch_loss;
  float final_mean_phi = 0.0f;  // mean C1+C2 violation after training
  float final_mean_psi = 0.0f;  // mean C3 violation after training
};

/// The "Transformer" and "Transformer+KAL" rows of Table 1, selected by
/// TrainConfig::use_kal. Checkpointable: model() is the full learned state.
class TransformerImputer : public CheckpointableImputer {
 public:
  /// Inference fans out on `pool` (null = global pool), which must outlive
  /// the imputer; train()/fit() take their pool per call.
  TransformerImputer(nn::TransformerConfig model_config,
                     TrainConfig train_config,
                     util::ThreadPool* pool = nullptr);

  /// Trains on the given examples through train_model (each example keeps
  /// a stable index for its per-example Lagrange multipliers), with
  /// micro-shards spread over `pool` (null = global pool); the trained
  /// weights are bit-for-bit identical at every thread count.
  TrainStats train(const std::vector<ImputationExample>& examples,
                   util::ThreadPool* pool = nullptr);

  /// Imputer::fit — train() without the stats, for registry-driven callers.
  void fit(const std::vector<ImputationExample>& examples,
           util::ThreadPool* pool = nullptr) override {
    train(examples, pool);
  }

  std::string name() const override {
    return train_config_.use_kal ? "Transformer+KAL" : "Transformer";
  }
  /// impute_batch({ex}).front().
  std::vector<double> impute(const ImputationExample& ex) override;

  /// Lane-parallel batched inference (impute_sharded): shards of
  /// same-length windows, each one stacked [b, T, C] forward under a
  /// tensor::InferenceGuard — no autograd graph, pooled activations
  /// recycled across calls. Attention is computed per batch entry
  /// (tensor::attention loops the score product over the batch axis), so
  /// windows can never attend across batch boundaries and the result is
  /// bit-identical to the per-window loop.
  std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) override;

  nn::ImputationTransformer& model() override { return *model_; }
  const TrainConfig& train_config() const { return train_config_; }

 private:
  nn::TransformerConfig model_config_;
  TrainConfig train_config_;
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<nn::ImputationTransformer> model_;
  fmnet::Rng rng_;
};

}  // namespace fmnet::impute
