#include "impute/autoencoder_imputer.h"

#include "impute/batching.h"
#include "nn/kal.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

AutoencoderNet::AutoencoderNet(const AutoencoderConfig& config,
                               std::int64_t channels, fmnet::Rng& rng)
    : window_(config.window),
      channels_(channels),
      enc1_(config.window * channels, config.hidden, rng),
      enc2_(config.hidden, config.latent, rng),
      dec1_(config.latent, config.hidden, rng),
      dec2_(config.hidden, config.window, rng) {
  FMNET_CHECK_GT(config.window, 0);
  FMNET_CHECK_GT(config.hidden, 0);
  FMNET_CHECK_GT(config.latent, 0);
}

Tensor AutoencoderNet::forward(const Tensor& x) const {
  FMNET_CHECK_EQ(x.dim(1), window_);
  FMNET_CHECK_EQ(x.dim(2), channels_);
  const Tensor flat = tensor::reshape(x, {x.dim(0), window_ * channels_});
  const Tensor h1 = enc1_.forward(flat, tensor::Act::kGelu);
  const Tensor z = enc2_.forward(h1, tensor::Act::kGelu);
  const Tensor h2 = dec1_.forward(z, tensor::Act::kGelu);
  return dec2_.forward(h2);  // [B, T]
}

std::vector<Tensor> AutoencoderNet::parameters() const {
  std::vector<Tensor> params;
  for (const nn::Linear* lin : {&enc1_, &enc2_, &dec1_, &dec2_}) {
    for (Tensor p : lin->parameters()) params.push_back(std::move(p));
  }
  return params;
}

AutoencoderImputer::AutoencoderImputer(AutoencoderConfig config,
                                       TrainConfig train_config,
                                       util::ThreadPool* pool)
    : config_(config),
      train_config_(train_config),
      pool_(pool),
      rng_(train_config.seed) {
  net_ = std::make_unique<AutoencoderNet>(
      config_, static_cast<std::int64_t>(telemetry::kNumInputChannels), rng_);
  // Checkpoint contract: warm engine runs load weights without fit(), so
  // the net must already be in the inference state fit() would leave.
  net_->set_training(false);
}

void AutoencoderImputer::fit(const std::vector<ImputationExample>& examples,
                             util::ThreadPool* pool) {
  for (const ImputationExample& ex : examples) {
    FMNET_CHECK_EQ(static_cast<std::int64_t>(ex.window), config_.window);
  }
  // One micro-shard per batch: the whole batch is one forward, so training
  // runs inline on the calling lane (finer shards would regroup the loss
  // sums and move every trained weight).
  TrainConfig cfg = train_config_;
  cfg.micro_batch = cfg.batch_size;
  TrainHooks hooks;
  hooks.make_replica = replicas_of<AutoencoderNet>(
      config_, static_cast<std::int64_t>(telemetry::kNumInputChannels));
  hooks.forward = [](nn::Module& m, const Tensor& x,
                     const std::vector<std::size_t>&, fmnet::Rng&) {
    return static_cast<AutoencoderNet&>(m).forward(x);
  };
  if (config_.penalty_weight > 0.0f) {
    // Fixed-weight domain-knowledge penalty: kal_penalty with zero
    // multipliers, i.e. the pure quadratic μΦ²/μΨ² terms — no
    // augmented-Lagrangian multiplier schedule (DESIGN.md §13).
    hooks.penalty = [&](const Tensor& row, std::size_t i) {
      return nn::kal_penalty(row, examples[i].constraints, 0.0f, 0.0f,
                             train_config_.kal_mu)
          .penalty;
    };
    hooks.penalty_weight = config_.penalty_weight;
  }
  train_model(*net_, examples, cfg, hooks, rng_, pool, name());
}

std::vector<double> AutoencoderImputer::impute(const ImputationExample& ex) {
  return impute_batch({ex}).front();
}

std::vector<std::vector<double>> AutoencoderImputer::impute_batch(
    const std::vector<ImputationExample>& batch) {
  // Written only on a transition, so overlapping calls never race on it.
  if (net_->training()) net_->set_training(false);
  // Every batch row flattens to its own GEMM row, so shards match the
  // per-window loop bit-for-bit; a window of the wrong length fails the
  // net's shape check.
  return impute_sharded(batch, pool_,
                        [this](const Tensor& x) { return net_->forward(x); });
}

}  // namespace fmnet::impute
