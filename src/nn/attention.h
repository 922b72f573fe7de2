// Multi-head self-attention (Vaswani et al., 2017) on [B, T, D] inputs.
#pragma once

#include "nn/layers.h"
#include "nn/module.h"

namespace fmnet::nn {

/// Scaled dot-product multi-head self-attention with output projection.
/// d_model must be divisible by num_heads.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::int64_t d_model, std::int64_t num_heads,
                         fmnet::Rng& rng);

  /// x: [B, T, d_model] -> [B, T, d_model]. Full (non-causal) attention:
  /// imputation may look at the whole window, unlike autoregressive
  /// decoding.
  Tensor forward(const Tensor& x) const;

  std::vector<Tensor> parameters() const override;

  std::int64_t num_heads() const { return num_heads_; }

 private:
  std::int64_t d_model_;
  std::int64_t num_heads_;
  std::int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace fmnet::nn
