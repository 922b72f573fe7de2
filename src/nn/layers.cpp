#include "nn/layers.h"

#include <cmath>

#include "tensor/ops.h"
#include "tensor/pool.h"
#include "util/check.h"

namespace fmnet::nn {

using namespace fmnet::tensor;  // NOLINT: op vocabulary

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               fmnet::Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  FMNET_CHECK_GT(in_features, 0);
  FMNET_CHECK_GT(out_features, 0);
  const float std_dev =
      std::sqrt(2.0f / static_cast<float>(in_features + out_features));
  weight_ = Tensor::randn({in_features, out_features}, rng, std_dev,
                          /*requires_grad=*/true);
  bias_ = Tensor::zeros({out_features}, /*requires_grad=*/true);
}

Tensor Linear::forward(const Tensor& x) const {
  return forward(x, Act::kNone);
}

Tensor Linear::forward(const Tensor& x, tensor::Act act) const {
  FMNET_CHECK(x.ndim() == 2 || x.ndim() == 3,
              "Linear expects 2-D or 3-D input");
  FMNET_CHECK_EQ(x.shape().back(), in_features_);
  if (precision() == Precision::kInt8 && tensor::inference_mode()) {
    return quant::linear_act_quantized(x, qweight_, bias_, act);
  }
  return linear_act(x, weight_, bias_, act);
}

std::vector<Tensor> Linear::parameters() const { return {weight_, bias_}; }

void Linear::set_precision(Precision precision) {
  if (precision == Precision::kInt8) {
    FMNET_CHECK(!training(),
                "set_precision(kInt8) on a training-mode Linear: call "
                "set_training(false) first");
    // Eager snapshot: quantisation cost is paid once here, never on the
    // serving path.
    qweight_ = quant::quantize_linear_weights(weight_.data().data(),
                                              in_features_, out_features_);
  } else {
    qweight_ = {};
  }
  Module::set_precision(precision);
}

void Linear::set_training(bool training) {
  Module::set_training(training);  // entering training resets to kFp32
  if (training) qweight_ = {};
}

LayerNorm::LayerNorm(std::int64_t features, float eps)
    : features_(features), eps_(eps) {
  FMNET_CHECK_GT(features, 0);
  gamma_ = Tensor::ones({features}, /*requires_grad=*/true);
  beta_ = Tensor::zeros({features}, /*requires_grad=*/true);
}

Tensor LayerNorm::forward(const Tensor& x) const {
  FMNET_CHECK_EQ(x.shape().back(), features_);
  return layer_norm(x, gamma_, beta_, eps_);
}

std::vector<Tensor> LayerNorm::parameters() const { return {gamma_, beta_}; }

Dropout::Dropout(float p) : p_(p) {
  FMNET_CHECK(p >= 0.0f && p < 1.0f, "dropout probability must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& x, fmnet::Rng& rng) const {
  if (!training() || p_ == 0.0f) return x;
  std::vector<float> mask = tensor::pool::acquire(x.data().size());
  const float keep_scale = 1.0f / (1.0f - p_);
  for (auto& m : mask) {
    m = rng.bernoulli(static_cast<double>(p_)) ? 0.0f : keep_scale;
  }
  return x * Tensor::from_vector(std::move(mask), x.shape());
}

PositionalEncoding::PositionalEncoding(std::int64_t max_len,
                                       std::int64_t d_model)
    : max_len_(max_len), d_model_(d_model) {
  FMNET_CHECK_GT(max_len, 0);
  FMNET_CHECK_GT(d_model, 0);
  std::vector<float> table(
      static_cast<std::size_t>(max_len * d_model));
  for (std::int64_t pos = 0; pos < max_len; ++pos) {
    for (std::int64_t i = 0; i < d_model; ++i) {
      const double angle =
          static_cast<double>(pos) /
          std::pow(10000.0, 2.0 * std::floor(static_cast<double>(i) / 2.0) /
                                static_cast<double>(d_model));
      table[static_cast<std::size_t>(pos * d_model + i)] =
          static_cast<float>((i % 2 == 0) ? std::sin(angle)
                                          : std::cos(angle));
    }
  }
  table_ = Tensor::from_vector(std::move(table), {max_len, d_model});
}

Tensor PositionalEncoding::forward(const Tensor& x) const {
  FMNET_CHECK_EQ(x.ndim(), 3u);
  const std::int64_t t = x.dim(1);
  FMNET_CHECK_LE(t, max_len_);
  FMNET_CHECK_EQ(x.dim(2), d_model_);
  const Tensor pe = tensor::slice(table_, 0, 0, t);  // [T, D], broadcasts
  return x + pe;
}

}  // namespace fmnet::nn
