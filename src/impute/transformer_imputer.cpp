#include "impute/transformer_imputer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "impute/batching.h"
#include "nn/losses.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace fmnet::impute {

using tensor::Tensor;

TransformerImputer::TransformerImputer(nn::TransformerConfig model_config,
                                       TrainConfig train_config,
                                       InferConfig infer_config,
                                       util::ThreadPool* pool)
    : model_config_(model_config),
      train_config_(train_config),
      infer_config_(infer_config),
      pool_(pool),
      rng_(train_config.seed) {
  FMNET_CHECK_EQ(model_config_.input_channels,
                 static_cast<std::int64_t>(telemetry::kNumInputChannels));
  model_ = std::make_unique<nn::ImputationTransformer>(model_config_, rng_);
}

TrainStats TransformerImputer::train(
    const std::vector<ImputationExample>& examples, util::ThreadPool* pool) {
  obs::ScopedSpan train_span("train");
  auto& reg = obs::Registry::global();
  static obs::Counter& epochs_done = reg.counter("train.epochs");
  static obs::Counter& shards_done = reg.counter("train.micro_shards");
  static obs::Gauge& loss_gauge = reg.gauge("train.loss");
  static obs::Gauge& grad_norm_gauge = reg.gauge("train.grad_norm");
  static obs::Histogram& shard_ms_hist = reg.histogram(
      "train.micro_shard_ms",
      {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  FMNET_CHECK(!examples.empty(), "empty training set");
  FMNET_CHECK_GE(train_config_.micro_batch, 1);
  const std::size_t n = examples.size();
  model_->set_training(true);

  util::ThreadPool& tp = util::ThreadPool::resolve(pool);

  // One model replica per extra pool lane; lane 0 uses the master model
  // directly. Replica parameters are overwritten from the master before
  // every batch, so the throwaway init Rng never influences results.
  std::vector<std::unique_ptr<nn::ImputationTransformer>> replicas;
  std::vector<std::vector<Tensor>> lane_params;
  lane_params.push_back(model_->parameters());
  for (std::size_t l = 1; l < tp.size(); ++l) {
    fmnet::Rng init_rng(0);
    replicas.push_back(
        std::make_unique<nn::ImputationTransformer>(model_config_, init_rng));
    replicas.back()->set_training(true);
    lane_params.push_back(replicas.back()->parameters());
  }
  const std::size_t num_params = lane_params.front().size();

  nn::Adam opt(model_->parameters(), train_config_.lr);
  nn::KalState kal_state(n, train_config_.kal_mu);

  TrainStats stats;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Every micro-shard draws dropout noise from its own stream of this
  // root, keyed by a serially assigned shard counter — a pure function of
  // (seed, epoch schedule), never of thread assignment.
  const std::uint64_t dropout_root =
      fmnet::derive_stream_seed(train_config_.seed, 0);
  std::uint64_t shard_counter = 0;

  for (int epoch = 0; epoch < train_config_.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("epoch");
    // Cosine learning-rate decay.
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
      std::swap(order[i], order[rng_.uniform_int(
                              0, static_cast<std::int64_t>(i))]);
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

      // Fixed decomposition of the batch into micro-shards (independent of
      // the thread count), each with a pre-derived dropout stream.
      const std::size_t micro =
          static_cast<std::size_t>(train_config_.micro_batch);
      std::vector<std::vector<std::size_t>> shards;
      std::vector<std::uint64_t> shard_seeds;
      for (std::size_t s = 0; s < batch.size(); s += micro) {
        const std::size_t s_end = std::min(batch.size(), s + micro);
        shards.emplace_back(batch.begin() + static_cast<std::ptrdiff_t>(s),
                            batch.begin() +
                                static_cast<std::ptrdiff_t>(s_end));
        shard_seeds.push_back(
            fmnet::derive_stream_seed(dropout_root, shard_counter++));
      }
      const auto num_shards = static_cast<std::int64_t>(shards.size());

      // Sync replica weights to the master before fanning out.
      for (std::size_t l = 1; l < lane_params.size(); ++l) {
        for (std::size_t p = 0; p < num_params; ++p) {
          lane_params[l][p].data() = lane_params[0][p].data();
        }
      }

      model_->zero_grad();
      std::vector<double> shard_losses(shards.size(), 0.0);
      std::vector<std::vector<std::vector<float>>> shard_grads(
          shards.size(), std::vector<std::vector<float>>(num_params));

      tp.parallel_for_lane(0, num_shards, [&](std::size_t lane,
                                              std::int64_t si) {
        // Per-shard timing costs two clock reads per shard — only taken
        // when a metrics sink is live.
        const bool timed = obs::enabled();
        fmnet::Stopwatch shard_clock;
        const auto s = static_cast<std::size_t>(si);
        const std::vector<std::size_t>& shard = shards[s];
        nn::ImputationTransformer& m =
            lane == 0 ? *model_ : *replicas[lane - 1];
        const Tensor x = stack_features(examples, shard);
        const Tensor y = stack_targets(examples, shard);

        fmnet::Rng shard_rng(shard_seeds[s]);
        const Tensor pred = m.forward(x, shard_rng);
        Tensor loss = train_config_.loss == TrainConfig::Loss::kEmd
                          ? nn::emd_loss(pred, y)
                          : nn::mse_loss(pred, y);
        if (train_config_.use_kal) {
          Tensor penalty = Tensor::scalar(0.0f);
          for (std::size_t b = 0; b < shard.size(); ++b) {
            const std::size_t ex_idx = shard[b];
            const Tensor row = tensor::reshape(
                tensor::slice(pred, 0, static_cast<std::int64_t>(b),
                              static_cast<std::int64_t>(b) + 1),
                {static_cast<std::int64_t>(examples[ex_idx].window)});
            const nn::KalTerms terms = nn::kal_penalty(
                row, examples[ex_idx].constraints,
                kal_state.lambda_eq(ex_idx), kal_state.lambda_ineq(ex_idx),
                kal_state.mu());
            penalty = penalty + terms.penalty;
            // Each example index occurs in exactly one shard, so these
            // per-index writes are disjoint across concurrent shards.
            kal_state.update(ex_idx, terms.phi, terms.psi);
          }
          loss = loss + tensor::mul_scalar(
                            penalty, train_config_.kal_weight /
                                         static_cast<float>(shard.size()));
        }
        // Weight so that Σ_shards scaled losses/grads equals the loss and
        // gradient of the whole batch processed at once.
        const float scale = static_cast<float>(shard.size()) /
                            static_cast<float>(batch.size());
        Tensor scaled = tensor::mul_scalar(loss, scale);
        shard_losses[s] = static_cast<double>(scaled.item());
        scaled.backward();

        // Extract this shard's gradients and reset the lane's buffers so
        // lane reuse (and lane assignment itself) cannot affect them.
        for (std::size_t p = 0; p < num_params; ++p) {
          auto& node = *lane_params[lane][p].node();
          shard_grads[s][p] = std::move(node.grad);
          node.grad.clear();
        }
        if (timed) shard_ms_hist.record(shard_clock.elapsed_ms());
      });
      shards_done.add(num_shards);

      // Deterministic reduction: shard order, then element order.
      for (std::size_t p = 0; p < num_params; ++p) {
        auto& g = lane_params[0][p].node()->ensure_grad();
        for (std::size_t s = 0; s < shards.size(); ++s) {
          const auto& sg = shard_grads[s][p];
          if (sg.empty()) continue;
          for (std::size_t j = 0; j < g.size(); ++j) g[j] += sg[j];
        }
      }

      double batch_loss = 0.0;
      for (const double l : shard_losses) batch_loss += l;
      epoch_loss += batch_loss;
      ++batches;
      const float grad_norm = opt.clip_grad_norm(train_config_.grad_clip);
      grad_norm_gauge.set_max(static_cast<double>(grad_norm));
      opt.step();
    }
    epochs_done.add(1);
    stats.epoch_loss.push_back(
        static_cast<float>(epoch_loss / static_cast<double>(batches)));
    loss_gauge.set(static_cast<double>(stats.epoch_loss.back()));
    if (train_config_.verbose) {
      std::printf("[%s] epoch %3d loss %.5f phi %.4f psi %.4f\n",
                  name().c_str(), epoch, stats.epoch_loss.back(),
                  kal_state.mean_phi(), kal_state.mean_psi());
    }
  }
  stats.final_mean_phi = kal_state.mean_phi();
  stats.final_mean_psi = kal_state.mean_psi();
  model_->set_training(false);
  return stats;
}

void TransformerImputer::set_infer_config(const InferConfig& infer_config) {
  infer_config_ = infer_config;
}

void TransformerImputer::apply_infer_precision() {
  // Module state is written only on a transition, so overlapping inference
  // calls (which only read it) never race.
  if (model_->training()) model_->set_training(false);
  const nn::Precision want = infer_config_.quantize_int8
                                 ? nn::Precision::kInt8
                                 : nn::Precision::kFp32;
  // set_precision(kInt8) re-snapshots the weights, so only call it on an
  // actual transition (training resets the model to kFp32, which makes
  // this re-trigger after every train()).
  if (model_->precision() != want) model_->set_precision(want);
}

std::vector<double> TransformerImputer::impute(const ImputationExample& ex) {
  return impute_batch({ex}).front();
}

std::vector<std::vector<double>> TransformerImputer::impute_batch(
    const std::vector<ImputationExample>& batch) {
  apply_infer_precision();
  return impute_sharded(batch, pool_, [this](const Tensor& x) {
    fmnet::Rng eval_rng(0);  // dropout disabled at eval; rng unused
    return model_->forward(x, eval_rng);
  });
}

}  // namespace fmnet::impute
