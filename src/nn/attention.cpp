#include "nn/attention.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::nn {

using namespace fmnet::tensor;  // NOLINT: op vocabulary

MultiHeadSelfAttention::MultiHeadSelfAttention(std::int64_t d_model,
                                               std::int64_t num_heads,
                                               fmnet::Rng& rng)
    : d_model_(d_model),
      num_heads_(num_heads),
      head_dim_(d_model / num_heads),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng) {
  FMNET_CHECK_GT(num_heads, 0);
  FMNET_CHECK_EQ(d_model % num_heads, 0);
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x,
                                       std::int64_t query_from) const {
  FMNET_CHECK_EQ(x.ndim(), 3u);
  FMNET_CHECK_EQ(x.dim(2), d_model_);
  const float inv_sqrt_d =
      1.0f / std::sqrt(static_cast<float>(head_dim_));
  const Tensor q = wq_.forward(
      query_from == 0 ? x : slice(x, 1, query_from, x.dim(1)));
  const Tensor k = wk_.forward(x);
  const Tensor v = wv_.forward(x);
  // Scores, softmax and the value product of every head fused into one
  // node that reads each head's columns of the [B, T, D] projections in
  // place; the [T, T] score matrix never materialises as graph state.
  return wo_.forward(attention(q, k, v, num_heads_, inv_sqrt_d));
}

std::vector<Tensor> MultiHeadSelfAttention::parameters() const {
  std::vector<Tensor> ps;
  for (const auto* lin : {&wq_, &wk_, &wv_, &wo_}) {
    for (Tensor p : lin->parameters()) ps.push_back(std::move(p));
  }
  return ps;
}

}  // namespace fmnet::nn
