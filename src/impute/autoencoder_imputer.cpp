#include "impute/autoencoder_imputer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "impute/batching.h"
#include "nn/kal.h"
#include "nn/losses.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

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

void AutoencoderNet::set_training(bool training) {
  Module::set_training(training);
  enc1_.set_training(training);
  enc2_.set_training(training);
  dec1_.set_training(training);
  dec2_.set_training(training);
}

void AutoencoderNet::set_precision(nn::Precision precision) {
  Module::set_precision(precision);
  enc1_.set_precision(precision);
  enc2_.set_precision(precision);
  dec1_.set_precision(precision);
  dec2_.set_precision(precision);
}

AutoencoderImputer::AutoencoderImputer(AutoencoderConfig config,
                                       TrainConfig train_config,
                                       util::ThreadPool* pool)
    : config_(config),
      train_config_(train_config),
      pool_(pool),
      rng_(train_config.seed) {
  net_ = std::make_unique<AutoencoderNet>(
      config_, static_cast<std::int64_t>(telemetry::kNumInputChannels), rng_);
  // Checkpoint contract: warm engine runs load weights without fit(), so
  // the net must already be in the inference state fit() would leave.
  net_->set_training(false);
}

void AutoencoderImputer::fit(const std::vector<ImputationExample>& examples,
                             util::ThreadPool* pool) {
  // Serial on purpose: the whole batch is one forward, so there is no
  // micro-shard structure to fan out, and ignoring the pool makes trained
  // weights trivially bit-identical at every lane count.
  (void)pool;
  FMNET_CHECK(!examples.empty(), "empty training set");
  const std::size_t n = examples.size();
  for (const ImputationExample& ex : examples) {
    FMNET_CHECK_EQ(static_cast<std::int64_t>(ex.window), config_.window);
  }
  net_->set_training(true);
  nn::Adam opt(net_->parameters(), train_config_.lr);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < train_config_.epochs; ++epoch) {
    // Cosine learning-rate decay, matching the transformer schedule.
    if (train_config_.epochs > 1 && train_config_.lr_final_fraction < 1.0f) {
      const float progress = static_cast<float>(epoch) /
                             static_cast<float>(train_config_.epochs - 1);
      const float floor = train_config_.lr * train_config_.lr_final_fraction;
      opt.set_lr(floor + 0.5f * (train_config_.lr - floor) *
                             (1.0f + std::cos(progress *
                                              3.14159265358979f)));
    }
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = n; i-- > 1;) {
      std::swap(order[i],
                order[rng_.uniform_int(0, static_cast<std::int64_t>(i))]);
    }
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < n;
         begin += static_cast<std::size_t>(train_config_.batch_size)) {
      const std::size_t end =
          std::min(n, begin + static_cast<std::size_t>(
                                  train_config_.batch_size));
      const std::vector<std::size_t> batch(order.begin() + begin,
                                           order.begin() + end);
      const Tensor x = stack_features(examples, batch);
      const Tensor y = stack_targets(examples, batch);
      net_->zero_grad();
      const Tensor pred = net_->forward(x);
      Tensor loss = train_config_.loss == TrainConfig::Loss::kEmd
                        ? nn::emd_loss(pred, y)
                        : nn::mse_loss(pred, y);
      if (config_.penalty_weight > 0.0f) {
        // Fixed-weight domain-knowledge penalty: kal_penalty with zero
        // multipliers, i.e. the pure quadratic μΦ²/μΨ² terms — no
        // augmented-Lagrangian multiplier schedule (DESIGN.md §13).
        Tensor penalty = Tensor::scalar(0.0f);
        for (std::size_t b = 0; b < batch.size(); ++b) {
          const std::size_t ex_idx = batch[b];
          const Tensor row = tensor::reshape(
              tensor::slice(pred, 0, static_cast<std::int64_t>(b),
                            static_cast<std::int64_t>(b) + 1),
              {static_cast<std::int64_t>(examples[ex_idx].window)});
          const nn::KalTerms terms =
              nn::kal_penalty(row, examples[ex_idx].constraints, 0.0f, 0.0f,
                              train_config_.kal_mu);
          penalty = penalty + terms.penalty;
        }
        loss = loss + tensor::mul_scalar(
                          penalty, config_.penalty_weight /
                                       static_cast<float>(batch.size()));
      }
      epoch_loss += static_cast<double>(loss.item());
      loss.backward();
      opt.clip_grad_norm(train_config_.grad_clip);
      opt.step();
      ++batches;
    }
    if (train_config_.verbose) {
      std::printf("[%s] epoch %3d loss %.5f\n", name().c_str(), epoch,
                  epoch_loss / static_cast<double>(batches));
    }
  }
  net_->set_training(false);
}

std::vector<double> AutoencoderImputer::impute(const ImputationExample& ex) {
  return impute_batch({ex}).front();
}

std::vector<std::vector<double>> AutoencoderImputer::impute_batch(
    const std::vector<ImputationExample>& batch) {
  // Written only on a transition, so overlapping calls never race on it.
  if (net_->training()) net_->set_training(false);
  // Every batch row flattens to its own GEMM row, so shards match the
  // per-window loop bit-for-bit; a window of the wrong length fails the
  // net's shape check.
  return impute_sharded(batch, pool_,
                        [this](const Tensor& x) { return net_->forward(x); });
}

}  // namespace fmnet::impute
