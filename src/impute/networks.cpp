#include "impute/networks.h"

#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

PointwiseMlpNet::PointwiseMlpNet(std::int64_t channels,
                                 std::int64_t hidden_size, fmnet::Rng& rng)
    : l1_(channels, hidden_size, rng),
      l2_(hidden_size, hidden_size, rng),
      l3_(hidden_size, 1, rng) {}

Tensor PointwiseMlpNet::forward(const Tensor& x) const {
  const Tensor h1 = l1_.forward(x, tensor::Act::kGelu);
  const Tensor h2 = l2_.forward(h1, tensor::Act::kGelu);
  const Tensor out = l3_.forward(h2);  // [B, T, 1]
  return tensor::reshape(out, {x.dim(0), x.dim(1)});
}

std::vector<Tensor> PointwiseMlpNet::parameters() const {
  std::vector<Tensor> params;
  for (const nn::Linear* lin : {&l1_, &l2_, &l3_}) {
    for (Tensor p : lin->parameters()) params.push_back(std::move(p));
  }
  return params;
}

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

}  // namespace fmnet::impute
