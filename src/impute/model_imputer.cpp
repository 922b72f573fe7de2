#include "impute/model_imputer.h"

#include <algorithm>

#include "impute/batching.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

namespace {

/// Rows (windows × steps) of one inference shard. A constant, not a knob:
/// it bounds the activations each lane holds (peak RSS), and since shard
/// boundaries depend only on it and the window lengths, never on the lane
/// count, no output can depend on the pool either.
constexpr std::size_t kShardRows = 1600;

}  // namespace

ModelImputer::ModelImputer(ModelFamily family, TrainConfig train,
                           util::ThreadPool* pool)
    : family_(std::move(family)),
      train_(train),
      pool_(pool),
      rng_(train.seed),
      net_(family_.make_net(rng_)) {}

std::vector<float> ModelImputer::train(
    const std::vector<ImputationExample>& examples, util::ThreadPool* pool) {
  return train_model(*net_, examples, train_, family_, rng_, pool);
}

std::vector<double> ModelImputer::impute(const ImputationExample& ex) {
  return impute_batch({ex}).front();
}

std::vector<std::vector<double>> ModelImputer::impute_batch(
    const std::vector<ImputationExample>& batch) {
  // Every window a model forward runs, so a run's forward work is an exact
  // count in exported metrics.
  static obs::Counter& forwarded =
      obs::Registry::global().counter("impute.forward.windows");
  forwarded.add(static_cast<std::int64_t>(batch.size()));
  // Written only on a transition, so overlapping calls never race on it.
  if (net_->training()) net_->set_training(false);
  // A shard's windows share their length and the steps they return.
  std::vector<std::vector<std::size_t>> shards;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ImputationExample& ex = batch[i];
    const std::size_t cap = std::max<std::size_t>(
        1, kShardRows / std::max<std::size_t>(1, ex.window));
    if (shards.empty() || shards.back().size() >= cap ||
        batch[shards.back().front()].window != ex.window ||
        batch[shards.back().front()].output_from != ex.output_from) {
      shards.emplace_back();
    }
    shards.back().push_back(i);
  }

  // Outputs are sized here, on the calling thread, and the shards only
  // write into them: the caller that frees them also allocated them.
  std::vector<std::vector<double>> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out[i].resize(batch[i].window - batch[i].output_from);
  }
  const auto run_shard = [&](std::int64_t s) {
    const std::vector<std::size_t>& rows = shards[static_cast<std::size_t>(s)];
    const std::size_t steps = out[rows.front()].size();
    const tensor::InferenceGuard guard;  // per lane: the flag is thread-local
    fmnet::Rng eval_rng(0);  // dropout is off in eval mode; never drawn
    const Tensor pred =
        family_.forward(*net_, stack_features(batch, rows), batch, rows,
                        eval_rng);  // [b, T - output_from]
    FMNET_CHECK_EQ(pred.numel(),
                   static_cast<std::int64_t>(rows.size() * steps));
    const float* pv = pred.data().data();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::vector<double>& dst = out[rows[r]];
      for (std::size_t j = 0; j < steps; ++j) {
        // Denormalise to packets; queue lengths are non-negative.
        dst[j] = std::max(0.0, static_cast<double>(pv[r * steps + j]) *
                                   batch[rows[r]].qlen_scale);
      }
    }
  };
  if (shards.size() == 1) {
    run_shard(0);
  } else {
    util::ThreadPool::resolve(pool_).parallel_for(
        0, static_cast<std::int64_t>(shards.size()), run_shard);
  }
  return out;
}

}  // namespace fmnet::impute
