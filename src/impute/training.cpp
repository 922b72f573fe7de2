#include "impute/training.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "impute/batching.h"
#include "nn/losses.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace fmnet::impute {

using tensor::Tensor;

std::vector<float> train_model(nn::Module& model,
                               const std::vector<ImputationExample>& examples,
                               const TrainConfig& config,
                               const ModelFamily& family, fmnet::Rng& rng,
                               util::ThreadPool* pool) {
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
  FMNET_CHECK_GE(config.micro_batch, 1);
  const std::size_t n = examples.size();
  const auto batch_size = static_cast<std::size_t>(config.batch_size);
  const auto micro = static_cast<std::size_t>(config.micro_batch);
  const Penalty penalty = family.penalty ? family.penalty(examples) : nullptr;
  model.set_training(true);

  util::ThreadPool& tp = util::ThreadPool::resolve(pool);

  // One model replica per extra lane a batch's shards can occupy; lane 0
  // uses the master model directly.
  const std::size_t max_shards = (std::min(n, batch_size) + micro - 1) / micro;
  std::vector<std::unique_ptr<nn::Module>> replicas;
  std::vector<std::vector<Tensor>> lane_params;
  lane_params.push_back(model.parameters());
  for (std::size_t l = 1; l < std::min(tp.size(), max_shards); ++l) {
    fmnet::Rng init_rng(0);
    replicas.push_back(family.make_net(init_rng));
    replicas.back()->set_training(true);
    lane_params.push_back(replicas.back()->parameters());
  }
  const std::size_t num_params = lane_params.front().size();

  nn::Adam opt(model.parameters(), config.lr);
  std::vector<float> epoch_losses;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Every micro-shard draws dropout noise from its own stream of this
  // root, keyed by a serially assigned shard counter — a pure function of
  // (seed, epoch schedule), never of thread assignment.
  const std::uint64_t dropout_root = fmnet::derive_stream_seed(config.seed, 0);
  std::uint64_t shard_counter = 0;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("epoch");
    // Cosine learning-rate decay.
    if (config.epochs > 1 && config.lr_final_fraction < 1.0f) {
      const float progress = static_cast<float>(epoch) /
                             static_cast<float>(config.epochs - 1);
      const float floor = config.lr * config.lr_final_fraction;
      opt.set_lr(floor + 0.5f * (config.lr - floor) *
                             (1.0f + std::cos(progress *
                                              3.14159265358979f)));
    }
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = n; i-- > 1;) {
      std::swap(order[i], order[rng.uniform_int(
                              0, static_cast<std::int64_t>(i))]);
    }
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < n; begin += batch_size) {
      const std::size_t end = std::min(n, begin + batch_size);
      const std::vector<std::size_t> batch(order.begin() + begin,
                                           order.begin() + end);

      // Fixed decomposition of the batch into micro-shards (independent of
      // the thread count), each with a pre-derived dropout stream.
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

      model.zero_grad();
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
        nn::Module& m = lane == 0 ? model : *replicas[lane - 1];
        const Tensor x = stack_features(examples, shard);
        const Tensor y = stack_targets(examples, shard);

        fmnet::Rng shard_rng(shard_seeds[s]);
        const Tensor pred = family.forward(m, x, examples, shard, shard_rng);
        Tensor loss = config.loss == TrainConfig::Loss::kEmd
                          ? nn::emd_loss(pred, y)
                          : nn::mse_loss(pred, y);
        if (penalty) {
          Tensor shard_penalty = Tensor::scalar(0.0f);
          for (std::size_t b = 0; b < shard.size(); ++b) {
            const Tensor row = tensor::reshape(
                tensor::slice(pred, 0, static_cast<std::int64_t>(b),
                              static_cast<std::int64_t>(b) + 1),
                {static_cast<std::int64_t>(examples[shard[b]].window)});
            shard_penalty = shard_penalty + penalty(row, shard[b]);
          }
          loss = loss + tensor::mul_scalar(
                            shard_penalty,
                            family.penalty_weight /
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
      const float grad_norm = opt.clip_grad_norm(config.grad_clip);
      grad_norm_gauge.set_max(static_cast<double>(grad_norm));
      opt.step();
    }
    epochs_done.add(1);
    epoch_losses.push_back(
        static_cast<float>(epoch_loss / static_cast<double>(batches)));
    loss_gauge.set(static_cast<double>(epoch_losses.back()));
    if (config.verbose) {
      std::printf("[%s] epoch %3d loss %.5f\n", family.name.c_str(), epoch,
                  epoch_losses.back());
    }
  }
  model.set_training(false);
  return epoch_losses;
}

}  // namespace fmnet::impute
