#include "impute/rate_imputer.h"

#include <algorithm>

#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

namespace {

/// q[0]: the window's first periodic sample (normalised), 0 without one.
float initial_queue(const ImputationExample& ex) {
  return ex.constraints.sample_val.empty() ? 0.0f
                                           : ex.constraints.sample_val.front();
}

}  // namespace

PhysicsRateImputer::PhysicsRateImputer(RateImputerConfig config,
                                       TrainConfig train_config)
    : config_(config),
      train_config_(train_config),
      rng_(train_config.seed) {
  FMNET_CHECK_EQ(config_.model.input_channels,
                 static_cast<std::int64_t>(telemetry::kNumInputChannels));
  FMNET_CHECK_GT(config_.max_step_delta, 0.0f);
  rate_net_ =
      std::make_unique<nn::ImputationTransformer>(config_.model, rng_);
}

Tensor PhysicsRateImputer::derive_queues(const nn::ImputationTransformer& net,
                                         const Tensor& x,
                                         const std::vector<float>& q0,
                                         fmnet::Rng& dropout) const {
  const std::int64_t b = x.dim(0);
  const std::int64_t t_len = x.dim(1);
  FMNET_CHECK_EQ(static_cast<std::int64_t>(q0.size()), b);

  // Net inflow per step, bounded by the physical rate limit.
  const Tensor rates = tensor::mul_scalar(
      tensor::tanh(net.forward(x, dropout)),
      config_.max_step_delta);  // [B, T]

  Tensor q = Tensor::from_vector(q0, {b, 1});
  std::vector<Tensor> steps;
  steps.reserve(static_cast<std::size_t>(t_len));
  steps.push_back(q);  // q[0] is the (known) sampled initial state
  for (std::int64_t t = 0; t + 1 < t_len; ++t) {
    const Tensor net_t = tensor::slice(rates, 1, t, t + 1);  // [B, 1]
    q = tensor::relu(q + net_t);
    steps.push_back(q);
  }
  return tensor::reshape(tensor::cat(steps, 1), {b, t_len});
}

void PhysicsRateImputer::fit(const std::vector<ImputationExample>& examples,
                             util::ThreadPool* pool) {
  TrainHooks hooks;
  hooks.make_replica = replicas_of<nn::ImputationTransformer>(config_.model);
  hooks.forward = [&](nn::Module& m, const Tensor& x,
                      const std::vector<std::size_t>& shard,
                      fmnet::Rng& dropout) {
    std::vector<float> q0;
    for (const std::size_t i : shard) q0.push_back(initial_queue(examples[i]));
    return derive_queues(static_cast<nn::ImputationTransformer&>(m), x, q0,
                         dropout);
  };
  train_model(*rate_net_, examples, train_config_, hooks, rng_, pool, name());
}

std::vector<double> PhysicsRateImputer::impute(const ImputationExample& ex) {
  rate_net_->set_training(false);
  const auto t = static_cast<std::int64_t>(ex.window);
  const Tensor x = Tensor::from_vector(
      ex.features,
      {1, t, static_cast<std::int64_t>(telemetry::kNumInputChannels)});
  fmnet::Rng unused(0);  // dropout is disabled at eval
  const Tensor q = derive_queues(*rate_net_, x, {initial_queue(ex)}, unused);
  std::vector<double> out(ex.window);
  for (std::size_t i = 0; i < ex.window; ++i) {
    out[i] = std::max(
        0.0, static_cast<double>(q.data()[i]) * ex.qlen_scale);
  }
  return out;
}

}  // namespace fmnet::impute
