#include "impute/alt_models.h"

#include <algorithm>
#include <numeric>

#include "impute/batching.h"
#include "nn/losses.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

namespace {

// Shared EMD training loop over a forward functor.
template <class Forward>
void train_with_emd(const std::vector<ImputationExample>& examples,
                    const AltTrainConfig& cfg, std::vector<Tensor> params,
                    fmnet::Rng& rng, Forward&& forward) {
  FMNET_CHECK(!examples.empty(), "empty training set");
  nn::Adam opt(params, cfg.lr);
  const std::size_t n = examples.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (std::size_t i = n; i-- > 1;) {
      std::swap(order[i],
                order[rng.uniform_int(0, static_cast<std::int64_t>(i))]);
    }
    for (std::size_t begin = 0; begin < n;
         begin += static_cast<std::size_t>(cfg.batch_size)) {
      const std::size_t end =
          std::min(n, begin + static_cast<std::size_t>(cfg.batch_size));
      const std::vector<std::size_t> batch(order.begin() + begin,
                                           order.begin() + end);
      const Tensor x = stack_features(examples, batch);
      const Tensor y = stack_targets(examples, batch);
      for (Tensor p : params) p.zero_grad();
      Tensor loss = nn::emd_loss(forward(x), y);
      loss.backward();
      opt.clip_grad_norm(cfg.grad_clip);
      opt.step();
    }
  }
}

std::vector<double> impute_with(const ImputationExample& ex,
                                const Tensor& pred) {
  std::vector<double> out(ex.window);
  for (std::size_t i = 0; i < ex.window; ++i) {
    out[i] = std::max(
        0.0, static_cast<double>(pred.data()[i]) * ex.qlen_scale);
  }
  return out;
}

}  // namespace

BiGruImputer::BiGruImputer(std::int64_t hidden_size, AltTrainConfig config)
    : config_(config), rng_(config.seed) {
  net_ = std::make_unique<nn::BiGruImputerNet>(
      static_cast<std::int64_t>(telemetry::kNumInputChannels), hidden_size,
      rng_);
}

void BiGruImputer::train(const std::vector<ImputationExample>& examples) {
  train_with_emd(examples, config_, net_->parameters(), rng_,
                 [this](const Tensor& x) { return net_->forward(x); });
}

std::vector<double> BiGruImputer::impute(const ImputationExample& ex) {
  const auto t = static_cast<std::int64_t>(ex.window);
  const Tensor x = Tensor::from_vector(
      ex.features,
      {1, t, static_cast<std::int64_t>(telemetry::kNumInputChannels)});
  return impute_with(ex, net_->forward(x));
}

PointwiseMlpImputer::PointwiseMlpImputer(std::int64_t hidden_size,
                                         AltTrainConfig config)
    : config_(config), rng_(config.seed) {
  const auto c = static_cast<std::int64_t>(telemetry::kNumInputChannels);
  l1_ = std::make_unique<nn::Linear>(c, hidden_size, rng_);
  l2_ = std::make_unique<nn::Linear>(hidden_size, hidden_size, rng_);
  l3_ = std::make_unique<nn::Linear>(hidden_size, 1, rng_);
}

Tensor PointwiseMlpImputer::forward(const Tensor& x) const {
  const Tensor h1 = l1_->forward(x, tensor::Act::kGelu);
  const Tensor h2 = l2_->forward(h1, tensor::Act::kGelu);
  const Tensor out = l3_->forward(h2);  // [B, T, 1]
  return tensor::reshape(out, {x.dim(0), x.dim(1)});
}

void PointwiseMlpImputer::train(
    const std::vector<ImputationExample>& examples) {
  std::vector<Tensor> params;
  for (const auto* lin : {l1_.get(), l2_.get(), l3_.get()}) {
    for (Tensor p : lin->parameters()) params.push_back(std::move(p));
  }
  train_with_emd(examples, config_, std::move(params), rng_,
                 [this](const Tensor& x) { return forward(x); });
}

std::vector<double> PointwiseMlpImputer::impute(const ImputationExample& ex) {
  const auto t = static_cast<std::int64_t>(ex.window);
  const Tensor x = Tensor::from_vector(
      ex.features,
      {1, t, static_cast<std::int64_t>(telemetry::kNumInputChannels)});
  return impute_with(ex, forward(x));
}

}  // namespace fmnet::impute
