// Knowledge-Augmented Loss (paper §3.1).
//
// The transformer's EMD loss is augmented with penalty terms for the three
// switch constraints the paper selects because they are directly evaluable
// on the model output — C1 (max, an upper bound), C2 (periodic samples,
// equalities) and C3 (work conservation, an inequality); their definitions
// and the lost-LANZ exemption live in constraints/constraints.h.
//
// Per example i we aggregate C1/C2 violations into a scalar
//   Φ_i = Σ_{w: C1 binds} relu(max_{t∈w} Q̂ - m_max_w)
//         + Σ_{t∈samples} |Q̂_t - m_len_t|
// and inequality violations into
//   Ψ_i = Σ_w relu( Σ_{t∈w} tanh(k·relu(Q̂_t)) - m_out_w )
// (the tanh soft-counts non-empty steps, the per-window hinge strengthens
// the paper's single Ψ so a violation in one interval cannot be masked by
// slack in another).
//
// The loss follows the augmented Lagrangian method:
//   L = EMD + Σ_i [ μΦ_i² + λ_eq,i Φ_i + λ_ineq,i Ψ_i
//                   + μ·[λ_ineq,i>0 ∨ Ψ_i>0]·Ψ_i² ]
// with per-example multipliers updated after each epoch:
//   λ_eq,i   += μ·Φ_i         λ_ineq,i = max(0, λ_ineq,i + μ·Ψ_i)
#pragma once

#include <cstdint>
#include <vector>

#include "constraints/constraints.h"
#include "tensor/tensor.h"

namespace fmnet::nn {

using tensor::Tensor;

/// Differentiable penalty for one example. `pred` is the [T] model output.
/// Also reports the scalar violations for the multiplier update.
struct KalTerms {
  Tensor penalty;  // scalar tensor, part of the loss
  float phi = 0.0f;
  float psi = 0.0f;
};

KalTerms kal_penalty(const Tensor& pred,
                     const constraints::ExampleConstraints& c,
                     float lambda_eq, float lambda_ineq, float mu);

/// Per-example Lagrange multiplier state across the dataset.
class KalState {
 public:
  KalState(std::size_t num_examples, float mu);

  float lambda_eq(std::size_t i) const { return lambda_eq_.at(i); }
  float lambda_ineq(std::size_t i) const { return lambda_ineq_.at(i); }
  float mu() const { return mu_; }

  /// Augmented-Lagrangian multiplier update for example i given its current
  /// violations.
  void update(std::size_t i, float phi, float psi);

  /// Mean violation magnitudes (diagnostics).
  float mean_phi() const;
  float mean_psi() const;

 private:
  float mu_;
  std::vector<float> lambda_eq_;
  std::vector<float> lambda_ineq_;
  std::vector<float> last_phi_;
  std::vector<float> last_psi_;
};

}  // namespace fmnet::nn
