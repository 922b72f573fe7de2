#include "nn/transformer.h"

#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::nn {

using namespace fmnet::tensor;  // NOLINT: op vocabulary

TransformerEncoderLayer::TransformerEncoderLayer(std::int64_t d_model,
                                                 std::int64_t num_heads,
                                                 std::int64_t d_ff,
                                                 float dropout,
                                                 fmnet::Rng& rng)
    : ln1_(d_model),
      attn_(d_model, num_heads, rng),
      ln2_(d_model),
      ff1_(d_model, d_ff, rng),
      ff2_(d_ff, d_model, rng),
      dropout_(dropout) {}

Tensor TransformerEncoderLayer::forward(const Tensor& x, fmnet::Rng& rng,
                                        std::int64_t output_from) const {
  const Tensor kept =
      output_from == 0 ? x : slice(x, 1, output_from, x.dim(1));
  Tensor h = kept + dropout_.forward(
                        attn_.forward(ln1_.forward(x), output_from), rng);
  const Tensor ff = ff2_.forward(ff1_.forward(ln2_.forward(h), Act::kGelu));
  return h + dropout_.forward(ff, rng);
}

std::vector<Tensor> TransformerEncoderLayer::parameters() const {
  std::vector<Tensor> ps;
  auto append = [&ps](const Module& m) {
    for (Tensor p : m.parameters()) ps.push_back(std::move(p));
  };
  append(ln1_);
  append(attn_);
  append(ln2_);
  append(ff1_);
  append(ff2_);
  return ps;
}

void TransformerEncoderLayer::set_training(bool training) {
  Module::set_training(training);
  dropout_.set_training(training);
}

ImputationTransformer::ImputationTransformer(const TransformerConfig& config,
                                             fmnet::Rng& rng)
    : config_(config),
      input_proj_(config.input_channels, config.d_model, rng),
      pos_(config.max_seq_len, config.d_model),
      final_ln_(config.d_model),
      head_(config.d_model, 1, rng) {
  FMNET_CHECK_GT(config.num_layers, 0);
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(
        config.d_model, config.num_heads, config.d_ff, config.dropout, rng));
  }
}

Tensor ImputationTransformer::forward(const Tensor& x, fmnet::Rng& rng,
                                      std::int64_t output_from) const {
  FMNET_CHECK_EQ(x.ndim(), 3u);
  FMNET_CHECK_EQ(x.dim(2), config_.input_channels);
  FMNET_CHECK(output_from == 0 || (output_from > 0 && output_from < x.dim(1)),
              "output_from must leave at least one step of the window");
  Tensor h = pos_.forward(input_proj_.forward(x));
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    h = layers_[i]->forward(h, rng);
  }
  h = layers_.back()->forward(h, rng, output_from);  // [B, T - from, D]
  h = head_.forward(final_ln_.forward(h));           // [B, T - from, 1]
  return reshape(h, {x.dim(0), x.dim(1) - output_from});
}

std::vector<Tensor> ImputationTransformer::parameters() const {
  std::vector<Tensor> ps;
  for (Tensor p : input_proj_.parameters()) ps.push_back(std::move(p));
  for (const auto& layer : layers_) {
    for (Tensor p : layer->parameters()) ps.push_back(std::move(p));
  }
  for (Tensor p : final_ln_.parameters()) ps.push_back(std::move(p));
  for (Tensor p : head_.parameters()) ps.push_back(std::move(p));
  return ps;
}

void ImputationTransformer::set_training(bool training) {
  Module::set_training(training);
  for (const auto& layer : layers_) layer->set_training(training);
}

}  // namespace fmnet::nn
