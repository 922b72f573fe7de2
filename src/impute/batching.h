// Window batching shared by the model-backed imputers: stacking examples
// into [B, T, C] / [B, T] tensors for training, and the lane-parallel
// sharded forward behind every model's impute_batch (DESIGN.md §9).
#pragma once

#include <functional>
#include <vector>

#include "impute/imputer.h"
#include "tensor/tensor.h"

namespace fmnet::impute {

/// examples[indices] stacked into [B, T, C] features / [B, T] targets; every
/// window must have examples[indices[0]].window steps.
tensor::Tensor stack_features(const std::vector<ImputationExample>& examples,
                              const std::vector<std::size_t>& indices);
tensor::Tensor stack_targets(const std::vector<ImputationExample>& examples,
                             const std::vector<std::size_t>& indices);

/// Rows (windows × steps) of one inference shard. A constant, not a knob:
/// it bounds the activations each lane holds (peak RSS), and since shard
/// boundaries depend only on it and the window lengths, never on the lane
/// count, no output can depend on the pool either.
inline constexpr std::size_t kShardRows = 1600;

/// Batched inference on `pool` (null = global pool). The batch is cut into
/// shards of consecutive equal-length windows, at most max(1, kShardRows /
/// T) each; every shard is stacked into one [b, T, C] tensor and run
/// through `forward` ([b, T, C] -> [b, T] normalised queue lengths) under a
/// tensor::InferenceGuard, concurrently across lanes (a single shard runs
/// inline). out[i] is window i's prediction in packets, clamped at zero.
/// A window's rows never mix with another window's inside `forward` (the
/// batch ≡ loop contract), so the result equals forwarding each window
/// alone, bit for bit. Counts the batch in `impute.forward.windows`.
std::vector<std::vector<double>> impute_sharded(
    const std::vector<ImputationExample>& batch, util::ThreadPool* pool,
    const std::function<tensor::Tensor(const tensor::Tensor&)>& forward);

}  // namespace fmnet::impute
