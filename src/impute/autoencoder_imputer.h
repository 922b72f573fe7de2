// Autoencoder imputer — the second learned model family, following
// "Reconstructing Fine-Grained Network Data using Autoencoder Architectures
// with Domain Knowledge Penalties": an encoder/decoder MLP over the
// *flattened* window (so, unlike the pointwise MLP baseline, it mixes the
// whole window's coarse features into every fine step) trained with EMD
// plus a fixed-weight domain-knowledge penalty reusing nn::kal_penalty.
//
// The point of a second family is that the formal-methods layers (KAL
// penalty, CEM, C1–C4 consistency checks) are model-agnostic: everything
// downstream of impute()/impute_batch() — CEM wrapping, streaming via
// WindowBuffer, serving, Table-1 evaluation — works unchanged, which the
// registry-wide conformance suite (tests/imputer_conformance_test.cpp)
// pins for every current and future imputer.
#pragma once

#include <memory>

#include "impute/training.h"
#include "nn/layers.h"

namespace fmnet::impute {

/// Architecture of the autoencoder. `window` is the example length in fine
/// steps (the engine sets it from the scenario's data.window-ms); the net
/// flattens [T, C] into one vector, so the architecture — and therefore
/// the checkpoint cache key — depends on it.
struct AutoencoderConfig {
  std::int64_t window = 300;
  std::int64_t hidden = 64;
  std::int64_t latent = 16;
  /// Weight of the per-example kal_penalty term added to the EMD loss
  /// (fixed quadratic penalty, mu from TrainConfig::kal_mu; no multiplier
  /// schedule — see DESIGN.md §13). 0 disables the penalty entirely.
  float penalty_weight = 1.0f;
};

/// Encoder/decoder MLP: [B, T, C] -> flatten [B, T*C] -> hidden -> latent
/// -> hidden -> [B, T]. Each batch row is an independent GEMM row, so
/// batched forwards match the per-window loop bit-for-bit — the same
/// argument as the transformer's batched inference path.
class AutoencoderNet : public nn::Module {
 public:
  AutoencoderNet(const AutoencoderConfig& config, std::int64_t channels,
                 fmnet::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& x) const;  // [B,T,C]->[B,T]
  std::vector<tensor::Tensor> parameters() const override;

 private:
  std::int64_t window_;
  std::int64_t channels_;
  nn::Linear enc1_;  // [T*C -> hidden]
  nn::Linear enc2_;  // [hidden -> latent]
  nn::Linear dec1_;  // [latent -> hidden]
  nn::Linear dec2_;  // [hidden -> T]
};

/// The "Autoencoder" registry family ("autoencoder", "autoencoder+cem").
/// Trains through train_model with one micro-shard per batch (the batch is
/// a single forward, whatever train.micro-batch says), so training runs on
/// the calling lane and is bit-identical at every lane count.
class AutoencoderImputer : public CheckpointableImputer {
 public:
  /// Inference fans out on `pool` (null = global pool), which must outlive
  /// the imputer.
  AutoencoderImputer(AutoencoderConfig config, TrainConfig train_config,
                     util::ThreadPool* pool = nullptr);

  std::string name() const override { return "Autoencoder"; }
  void fit(const std::vector<ImputationExample>& examples,
           util::ThreadPool* pool = nullptr) override;
  /// impute_batch({ex}).front().
  std::vector<double> impute(const ImputationExample& ex) override;
  /// Lane-parallel sharded forward (impute_sharded); bit-identical to the
  /// loop (independent GEMM rows).
  std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) override;

  AutoencoderNet& model() override { return *net_; }
  const AutoencoderConfig& config() const { return config_; }

 private:
  AutoencoderConfig config_;
  TrainConfig train_config_;
  util::ThreadPool* pool_ = nullptr;
  fmnet::Rng rng_;
  std::unique_ptr<AutoencoderNet> net_;
};

}  // namespace fmnet::impute
