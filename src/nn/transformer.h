// Transformer encoder stack and the ImputationTransformer model used for
// telemetry imputation (paper §2.2 / Fig. 3: a transformer encoder over the
// coarse-grained series with a linear decoder emitting the fine-grained
// queue-length series).
#pragma once

#include <memory>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace fmnet::nn {

/// Pre-LayerNorm transformer encoder block:
///   x = x + MHSA(LN(x));  x = x + FFN(LN(x))
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(std::int64_t d_model, std::int64_t num_heads,
                          std::int64_t d_ff, float dropout, fmnet::Rng& rng);

  Tensor forward(const Tensor& x, fmnet::Rng& rng) const;
  std::vector<Tensor> parameters() const override;
  void set_training(bool training) override;

 private:
  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  LayerNorm ln2_;
  Linear ff1_;
  Linear ff2_;
  Dropout dropout_;
};

/// Hyperparameters of the imputation model. Defaults follow the scale in
/// the paper's Fig. 3 (d_model 16, 300-step windows) and are sized to train
/// on a laptop CPU in seconds.
struct TransformerConfig {
  std::int64_t input_channels = 4;  // sampled qlen, max qlen, drops, pkts
  std::int64_t d_model = 16;
  std::int64_t num_heads = 2;
  std::int64_t num_layers = 2;
  std::int64_t d_ff = 32;
  std::int64_t max_seq_len = 512;
  float dropout = 0.0f;
};

/// Encoder-only sequence-to-sequence imputer: per-time-step input features
/// [B, T, C] -> input projection -> positional encoding -> N encoder layers
/// -> final LayerNorm -> linear head -> [B, T] imputed values.
class ImputationTransformer : public Module {
 public:
  ImputationTransformer(const TransformerConfig& config, fmnet::Rng& rng);

  /// x: [B, T, C]; returns [B, T].
  Tensor forward(const Tensor& x, fmnet::Rng& rng) const;

  std::vector<Tensor> parameters() const override;
  void set_training(bool training) override;
  const TransformerConfig& config() const { return config_; }

 private:
  TransformerConfig config_;
  Linear input_proj_;
  PositionalEncoding pos_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  LayerNorm final_ln_;
  Linear head_;
};

}  // namespace fmnet::nn
