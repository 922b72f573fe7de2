// Window batching shared by training and batched inference: stacking
// examples into [B, T, C] / [B, T] tensors (DESIGN.md §9).
#pragma once

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

}  // namespace fmnet::impute
