#include "impute/batching.h"

#include <algorithm>

#include "obs/metrics.h"
#include "tensor/pool.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

Tensor stack_features(const std::vector<ImputationExample>& examples,
                      const std::vector<std::size_t>& indices) {
  const auto b = static_cast<std::int64_t>(indices.size());
  const auto t = static_cast<std::int64_t>(examples[indices[0]].window);
  const auto c = static_cast<std::int64_t>(telemetry::kNumInputChannels);
  // Pool storage, like every op output: the batch returns to the pool
  // when the tensor dies instead of being freed.
  std::vector<float> data =
      tensor::pool::acquire(static_cast<std::size_t>(b * t * c));
  auto dst = data.begin();
  for (const std::size_t i : indices) {
    FMNET_CHECK_EQ(examples[i].features.size(),
                   static_cast<std::size_t>(t * c));
    dst = std::copy(examples[i].features.begin(), examples[i].features.end(),
                    dst);
  }
  return Tensor::from_vector(std::move(data), {b, t, c});
}

Tensor stack_targets(const std::vector<ImputationExample>& examples,
                     const std::vector<std::size_t>& indices) {
  const auto b = static_cast<std::int64_t>(indices.size());
  const auto t = static_cast<std::int64_t>(examples[indices[0]].window);
  std::vector<float> data =
      tensor::pool::acquire(static_cast<std::size_t>(b * t));
  auto dst = data.begin();
  for (const std::size_t i : indices) {
    FMNET_CHECK_EQ(examples[i].target.size(), static_cast<std::size_t>(t));
    dst = std::copy(examples[i].target.begin(), examples[i].target.end(),
                    dst);
  }
  return Tensor::from_vector(std::move(data), {b, t});
}

std::vector<std::vector<double>> impute_sharded(
    const std::vector<ImputationExample>& batch, util::ThreadPool* pool,
    const std::function<Tensor(const Tensor&)>& forward) {
  // Every window a model forward runs, so a run's forward work is an exact
  // count in exported metrics.
  static obs::Counter& forwarded =
      obs::Registry::global().counter("impute.forward.windows");
  forwarded.add(static_cast<std::int64_t>(batch.size()));
  std::vector<std::vector<std::size_t>> shards;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t window = batch[i].window;
    const std::size_t cap =
        std::max<std::size_t>(1, kShardRows / std::max<std::size_t>(1, window));
    if (shards.empty() || shards.back().size() >= cap ||
        batch[shards.back().front()].window != window) {
      shards.emplace_back();
    }
    shards.back().push_back(i);
  }

  std::vector<std::vector<double>> out(batch.size());
  const auto run_shard = [&](std::int64_t s) {
    const std::vector<std::size_t>& rows = shards[static_cast<std::size_t>(s)];
    const std::size_t window = batch[rows.front()].window;
    const tensor::InferenceGuard guard;  // per lane: the flag is thread-local
    const Tensor pred = forward(stack_features(batch, rows));  // [b, T]
    const float* pv = pred.data().data();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::vector<double>& dst = out[rows[r]];
      dst.resize(window);
      for (std::size_t j = 0; j < window; ++j) {
        // Denormalise to packets; queue lengths are non-negative.
        dst[j] = std::max(0.0, static_cast<double>(pv[r * window + j]) *
                                   batch[rows[r]].qlen_scale);
      }
    }
  };
  if (shards.size() == 1) {
    run_shard(0);
  } else {
    util::ThreadPool::resolve(pool).parallel_for(
        0, static_cast<std::int64_t>(shards.size()), run_shard);
  }
  return out;
}

}  // namespace fmnet::impute
