#include "nn/kal.h"

#include <algorithm>

#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::nn {

using namespace fmnet::tensor;  // NOLINT: op vocabulary

KalTerms kal_penalty(const Tensor& pred,
                     const constraints::ExampleConstraints& c,
                     float lambda_eq, float lambda_ineq, float mu) {
  // The penalty exists to be differentiated; built under an InferenceGuard
  // its graph would silently be discarded and the multipliers would train
  // against nothing. Fail loudly instead.
  FMNET_CHECK(!tensor::inference_mode(),
              "kal_penalty inside an InferenceGuard scope: the KAL terms "
              "must build an autograd graph");
  FMNET_CHECK_EQ(pred.ndim(), 1u);
  const std::int64_t windows = c.check_shape(pred.dim(0));

  // Φ: C1 per-window max (upper bound — only exceeding the LANZ max is a
  // violation; intervals where C1 does not bind are skipped) and C2
  // sampled points (equality).
  Tensor phi = Tensor::scalar(0.0f);
  for (std::int64_t w = 0; w < windows; ++w) {
    if (!c.c1_binds(w)) continue;
    const Tensor win =
        tensor::slice(pred, 0, w * c.coarse_factor, (w + 1) * c.coarse_factor);
    const Tensor wmax = max_all(win);
    phi = phi + relu(add_scalar(wmax, -c.window_max[static_cast<std::size_t>(
                                          w)]));
  }
  for (std::size_t s = 0; s < c.sample_idx.size(); ++s) {
    const std::int64_t idx = c.sample_idx[s];
    const Tensor at = tensor::slice(pred, 0, idx, idx + 1);
    phi = phi + sum(abs(add_scalar(at, -c.sample_val[s])));
  }

  // Ψ: per-window hinge of (soft non-empty count − packets sent).
  Tensor psi = Tensor::scalar(0.0f);
  for (std::int64_t w = 0; w < windows; ++w) {
    const Tensor win =
        tensor::slice(pred, 0, w * c.coarse_factor, (w + 1) * c.coarse_factor);
    const Tensor soft_ne =
        sum(tanh(mul_scalar(relu(win), c.ne_tanh_scale)));
    psi = psi +
          relu(add_scalar(soft_ne,
                          -c.port_sent[static_cast<std::size_t>(w)]));
  }

  KalTerms terms;
  terms.phi = phi.item();
  terms.psi = psi.item();
  const bool active = lambda_ineq > 0.0f || terms.psi > 0.0f;
  Tensor penalty = mul_scalar(square(phi), mu) + mul_scalar(phi, lambda_eq) +
                   mul_scalar(psi, lambda_ineq);
  if (active) penalty = penalty + mul_scalar(square(psi), mu);
  terms.penalty = penalty;
  return terms;
}

KalState::KalState(std::size_t num_examples, float mu)
    : mu_(mu),
      lambda_eq_(num_examples, 0.0f),
      lambda_ineq_(num_examples, 0.0f),
      last_phi_(num_examples, 0.0f),
      last_psi_(num_examples, 0.0f) {
  FMNET_CHECK_GT(mu, 0.0f);
  FMNET_CHECK_GT(num_examples, 0u);
}

void KalState::update(std::size_t i, float phi, float psi) {
  FMNET_CHECK_LT(i, lambda_eq_.size());
  lambda_eq_[i] += mu_ * phi;
  lambda_ineq_[i] = std::max(0.0f, lambda_ineq_[i] + mu_ * psi);
  last_phi_[i] = phi;
  last_psi_[i] = psi;
}

float KalState::mean_phi() const {
  double acc = 0.0;
  for (const float x : last_phi_) acc += x;
  return static_cast<float>(acc / static_cast<double>(last_phi_.size()));
}

float KalState::mean_psi() const {
  double acc = 0.0;
  for (const float x : last_psi_) acc += x;
  return static_cast<float>(acc / static_cast<double>(last_psi_.size()));
}

}  // namespace fmnet::nn
