// Transformer-based telemetry imputation (paper §2.2 and Fig. 3): an
// encoder-only transformer ingests the per-step coarse features and emits
// the fine-grained queue-length series; trained with EMD loss, optionally
// augmented with the Knowledge-Augmented Loss (§3.1).
#pragma once

#include <memory>

#include "impute/imputer.h"
#include "nn/kal.h"
#include "nn/optim.h"
#include "nn/transformer.h"
#include "util/thread_pool.h"

namespace fmnet::impute {

struct TrainConfig {
  int epochs = 30;
  int batch_size = 8;
  float lr = 3e-3f;
  /// Cosine-decay floor: the learning rate anneals from `lr` to
  /// `lr * lr_final_fraction` across the epochs (1.0 = constant).
  float lr_final_fraction = 0.1f;
  float grad_clip = 1.0f;
  enum class Loss { kEmd, kMse } loss = Loss::kEmd;
  /// Knowledge-Augmented Loss: augmented-Lagrangian constraint penalties.
  bool use_kal = false;
  float kal_mu = 0.5f;
  /// Global weight multiplying the KAL penalty in the loss.
  float kal_weight = 1.0f;
  std::uint64_t seed = 1;
  bool verbose = false;
  /// Data-parallel gradient accumulation: each batch is cut into fixed
  /// micro-shards of at most this many examples, which are forwarded and
  /// backpropagated independently (concurrently when a pool has spare
  /// lanes) and reduced in shard order. The decomposition — and therefore
  /// every trained weight — depends only on this value and the seed, never
  /// on the thread count.
  int micro_batch = 1;
};

struct TrainStats {
  std::vector<float> epoch_loss;
  float final_mean_phi = 0.0f;  // mean C1+C2 violation after training
  float final_mean_psi = 0.0f;  // mean C3 violation after training
};

/// Inference-path options; the training path ignores them entirely.
struct InferConfig {
  /// Serve Linear layers with per-output-channel int8 weights and dynamic
  /// per-row int8 activations (tensor/quant.h): int32 dot products,
  /// dequantised/bias/activation in fp32. Trades a bounded EMD delta
  /// (pinned in tests and gated in CI) for throughput. The fp32 path and
  /// trained weights are untouched — flipping this back restores
  /// bit-identical fp32 serving.
  bool quantize_int8 = false;
};

/// The "Transformer" and "Transformer+KAL" rows of Table 1, selected by
/// TrainConfig::use_kal. Checkpointable: model() is the full learned state.
class TransformerImputer : public CheckpointableImputer {
 public:
  /// Inference fans out on `pool` (null = global pool), which must outlive
  /// the imputer; train()/fit() take their pool per call.
  TransformerImputer(nn::TransformerConfig model_config,
                     TrainConfig train_config,
                     InferConfig infer_config = {},
                     util::ThreadPool* pool = nullptr);

  /// Trains on the given examples (each example keeps a stable index for
  /// its per-example Lagrange multipliers). Micro-shards of each batch run
  /// concurrently on `pool` (null = global pool) over per-lane model
  /// replicas; gradients are reduced in shard order and dropout draws from
  /// per-shard derived Rng streams, so the trained weights are bit-for-bit
  /// identical at every thread count.
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
  /// recycled across calls — and under the int8 path when
  /// InferConfig::quantize_int8 is set. Attention is computed per batch
  /// entry (tensor::attention loops the score product over the batch
  /// axis), so windows can never attend across batch boundaries and the
  /// result is bit-identical to the per-window loop.
  std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) override;

  /// Swaps the inference options on a live imputer. Precision is applied
  /// lazily on the next impute()/impute_batch() call, so the int8 snapshot
  /// always reflects the final trained weights (set_training(true) drops
  /// any previous snapshot — see nn::Module::set_precision).
  void set_infer_config(const InferConfig& infer_config);
  const InferConfig& infer_config() const { return infer_config_; }

  nn::ImputationTransformer& model() override { return *model_; }
  const TrainConfig& train_config() const { return train_config_; }

 private:
  /// Eval mode + precision matching infer_config_.
  void apply_infer_precision();

  nn::TransformerConfig model_config_;
  TrainConfig train_config_;
  InferConfig infer_config_;
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<nn::ImputationTransformer> model_;
  fmnet::Rng rng_;
};

}  // namespace fmnet::impute
