#include "impute/transformer_imputer.h"

#include "impute/batching.h"
#include "nn/kal.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

TransformerImputer::TransformerImputer(nn::TransformerConfig model_config,
                                       TrainConfig train_config,
                                       util::ThreadPool* pool)
    : model_config_(model_config),
      train_config_(train_config),
      pool_(pool),
      rng_(train_config.seed) {
  FMNET_CHECK_EQ(model_config_.input_channels,
                 static_cast<std::int64_t>(telemetry::kNumInputChannels));
  model_ = std::make_unique<nn::ImputationTransformer>(model_config_, rng_);
}

TrainStats TransformerImputer::train(
    const std::vector<ImputationExample>& examples, util::ThreadPool* pool) {
  nn::KalState kal_state(examples.size(), train_config_.kal_mu);
  TrainHooks hooks;
  hooks.make_replica = replicas_of<nn::ImputationTransformer>(model_config_);
  hooks.forward = [](nn::Module& m, const Tensor& x,
                     const std::vector<std::size_t>&, fmnet::Rng& dropout) {
    return static_cast<nn::ImputationTransformer&>(m).forward(x, dropout);
  };
  if (train_config_.use_kal) {
    hooks.penalty = [&](const Tensor& row, std::size_t i) {
      const nn::KalTerms terms = nn::kal_penalty(
          row, examples[i].constraints, kal_state.lambda_eq(i),
          kal_state.lambda_ineq(i), kal_state.mu());
      kal_state.update(i, terms.phi, terms.psi);
      return terms.penalty;
    };
    hooks.penalty_weight = train_config_.kal_weight;
  }
  TrainStats stats;
  stats.epoch_loss = train_model(*model_, examples, train_config_, hooks,
                                 rng_, pool, name());
  stats.final_mean_phi = kal_state.mean_phi();
  stats.final_mean_psi = kal_state.mean_psi();
  return stats;
}

std::vector<double> TransformerImputer::impute(const ImputationExample& ex) {
  return impute_batch({ex}).front();
}

std::vector<std::vector<double>> TransformerImputer::impute_batch(
    const std::vector<ImputationExample>& batch) {
  // Written only on a transition, so overlapping calls never race on it.
  if (model_->training()) model_->set_training(false);
  return impute_sharded(batch, pool_, [this](const Tensor& x) {
    fmnet::Rng eval_rng(0);  // dropout disabled at eval; rng unused
    return model_->forward(x, eval_rng);
  });
}

}  // namespace fmnet::impute
