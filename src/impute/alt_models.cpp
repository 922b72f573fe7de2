#include "impute/alt_models.h"

#include <algorithm>

#include "tensor/ops.h"

namespace fmnet::impute {

using tensor::Tensor;

namespace {

constexpr auto kChannels =
    static_cast<std::int64_t>(telemetry::kNumInputChannels);

std::vector<double> impute_with(const ImputationExample& ex,
                                const Tensor& pred) {
  std::vector<double> out(ex.window);
  for (std::size_t i = 0; i < ex.window; ++i) {
    out[i] = std::max(
        0.0, static_cast<double>(pred.data()[i]) * ex.qlen_scale);
  }
  return out;
}

Tensor window_features(const ImputationExample& ex) {
  return Tensor::from_vector(
      ex.features, {1, static_cast<std::int64_t>(ex.window), kChannels});
}

}  // namespace

BiGruImputer::BiGruImputer(std::int64_t hidden_size, TrainConfig config)
    : hidden_size_(hidden_size), config_(config), rng_(config.seed) {
  net_ = std::make_unique<nn::BiGruImputerNet>(kChannels, hidden_size_, rng_);
}

void BiGruImputer::fit(const std::vector<ImputationExample>& examples,
                       util::ThreadPool* pool) {
  TrainHooks hooks;
  hooks.make_replica =
      replicas_of<nn::BiGruImputerNet>(kChannels, hidden_size_);
  hooks.forward = [](nn::Module& m, const Tensor& x,
                     const std::vector<std::size_t>&, fmnet::Rng&) {
    return static_cast<nn::BiGruImputerNet&>(m).forward(x);
  };
  train_model(*net_, examples, config_, hooks, rng_, pool, name());
}

std::vector<double> BiGruImputer::impute(const ImputationExample& ex) {
  return impute_with(ex, net_->forward(window_features(ex)));
}

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

PointwiseMlpImputer::PointwiseMlpImputer(std::int64_t hidden_size,
                                         TrainConfig config)
    : hidden_size_(hidden_size), config_(config), rng_(config.seed) {
  net_ = std::make_unique<PointwiseMlpNet>(kChannels, hidden_size_, rng_);
}

void PointwiseMlpImputer::fit(const std::vector<ImputationExample>& examples,
                              util::ThreadPool* pool) {
  TrainHooks hooks;
  hooks.make_replica = replicas_of<PointwiseMlpNet>(kChannels, hidden_size_);
  hooks.forward = [](nn::Module& m, const Tensor& x,
                     const std::vector<std::size_t>&, fmnet::Rng&) {
    return static_cast<PointwiseMlpNet&>(m).forward(x);
  };
  train_model(*net_, examples, config_, hooks, rng_, pool, name());
}

std::vector<double> PointwiseMlpImputer::impute(const ImputationExample& ex) {
  return impute_with(ex, net_->forward(window_features(ex)));
}

}  // namespace fmnet::impute
