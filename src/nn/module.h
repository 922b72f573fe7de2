// Base class for trainable components (torch-style Module).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace fmnet::nn {

using tensor::Tensor;

/// A trainable component exposing its learnable tensors. Concrete modules
/// register parameters (and submodules' parameters) via parameters().
class Module {
 public:
  virtual ~Module() = default;

  /// All learnable tensors of this module (including submodules). The
  /// returned handles alias the live parameters, so optimisers can update
  /// them in place.
  virtual std::vector<Tensor> parameters() const = 0;

  /// Switches training-time behaviour (e.g. dropout). Default: stores flag.
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Zeroes the gradient buffers of every parameter.
  void zero_grad() const;

  /// Total number of learnable scalars.
  std::size_t num_parameters() const;

 private:
  bool training_ = true;
};

}  // namespace fmnet::nn
