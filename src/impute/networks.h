// The two networks of src/impute's learned families that src/nn does not
// already hold (the transformer and the BiGRU live there):
//
//   * PointwiseMlpNet — the architecture ablation without temporal context
//     (§2.2's "why a transformer?", bench/ablation_architecture);
//   * AutoencoderNet — the second model family, following "Reconstructing
//     Fine-Grained Network Data using Autoencoder Architectures with Domain
//     Knowledge Penalties": an encoder/decoder MLP over the *flattened*
//     window, so, unlike the pointwise MLP, it mixes the whole window's
//     coarse features into every fine step. Its point is that the
//     formal-methods layers (KAL penalty, CEM, C1–C4 checks) are
//     model-agnostic, which the registry-wide conformance suite
//     (tests/imputer_conformance_test.cpp) pins for every family.
//
// Both are plain nn::Modules; the registry's family table
// (impute/registry.cpp) pairs each with its forward.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace fmnet::impute {

/// Per-step MLP: [B, T, C] -> GELU(hidden) -> GELU(hidden) -> [B, T], each
/// step's coarse features seen in isolation.
class PointwiseMlpNet : public nn::Module {
 public:
  PointwiseMlpNet(std::int64_t channels, std::int64_t hidden_size,
                  fmnet::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& x) const;
  std::vector<tensor::Tensor> parameters() const override;

 private:
  nn::Linear l1_;
  nn::Linear l2_;
  nn::Linear l3_;
};

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

}  // namespace fmnet::impute
