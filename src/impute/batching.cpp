#include "impute/batching.h"

#include <algorithm>

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

}  // namespace fmnet::impute
