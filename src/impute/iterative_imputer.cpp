#include "impute/iterative_imputer.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/check.h"

namespace fmnet::impute {

namespace {

// Solves A x = b in place by Gaussian elimination with partial pivoting.
// A is n x n row-major. Returns false when singular.
bool solve_dense(std::vector<double>& a, std::vector<double>& b,
                 std::size_t n) {
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) {
        pivot = r;
      }
    }
    if (std::fabs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a[col * n + c], a[pivot * n + c]);
      }
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t col = n; col-- > 0;) {
    double acc = b[col];
    for (std::size_t c = col + 1; c < n; ++c) acc -= a[col * n + c] * b[c];
    b[col] = acc / a[col * n + col];
  }
  return true;
}

constexpr std::size_t kNumPredictors = 7;  // bias + 4 channels-ish + 2 lags

}  // namespace

std::vector<double> IterativeImputer::impute(const ImputationExample& ex) {
  const std::size_t t_len = ex.window;
  const auto factor = static_cast<std::size_t>(ex.constraints.coarse_factor);
  FMNET_CHECK_GT(factor, 0u);

  // Observed values in packets: periodic samples + max at interval midpoint.
  std::vector<double> q(t_len, 0.0);
  std::vector<char> observed(t_len, 0);
  for (std::size_t s = 0; s < ex.constraints.sample_idx.size(); ++s) {
    const auto idx = static_cast<std::size_t>(ex.constraints.sample_idx[s]);
    q[idx] = static_cast<double>(ex.constraints.sample_val[s]) *
             ex.qlen_scale;
    observed[idx] = 1;
  }
  for (std::size_t w = 0; w < ex.constraints.window_max.size(); ++w) {
    const std::size_t mid = w * factor + factor / 2;
    q[mid] = static_cast<double>(ex.constraints.window_max[w]) *
             ex.qlen_scale;
    observed[mid] = 1;
  }

  // Initialise missing entries with the mean of the observed ones.
  double obs_sum = 0.0;
  std::size_t obs_count = 0;
  for (std::size_t t = 0; t < t_len; ++t) {
    if (observed[t]) {
      obs_sum += q[t];
      ++obs_count;
    }
  }
  FMNET_CHECK_GT(obs_count, 0u);
  const double obs_mean = obs_sum / static_cast<double>(obs_count);
  for (std::size_t t = 0; t < t_len; ++t) {
    if (!observed[t]) q[t] = obs_mean;
  }

  // Per-step exogenous predictors from the coarse channels (packets).
  auto channel = [&](std::size_t t, std::size_t c) {
    return static_cast<double>(
        ex.features[t * telemetry::kNumInputChannels + c]);
  };
  auto predictors = [&](std::size_t t, double prev, double next,
                        double scale) {
    return std::array<double, kNumPredictors>{
        1.0,
        channel(t, telemetry::kChannelMaxQlen),
        channel(t, telemetry::kChannelPortSent),
        channel(t, telemetry::kChannelPortDropped),
        static_cast<double>(t % factor) / static_cast<double>(factor),
        prev / scale,
        next / scale,
    };
  };

  const double scale = std::max(1.0, ex.qlen_scale);
  for (int round = 0; round < config_.rounds; ++round) {
    // Fit ridge regression on the observed rows.
    std::vector<double> xtx(kNumPredictors * kNumPredictors, 0.0);
    std::vector<double> xty(kNumPredictors, 0.0);
    for (std::size_t t = 0; t < t_len; ++t) {
      if (!observed[t]) continue;
      // Edge-clamped neighbours: out-of-window context is unknown, so use
      // the step's own value rather than injecting a spurious zero.
      const double prev = t > 0 ? q[t - 1] : q[t];
      const double next = t + 1 < t_len ? q[t + 1] : q[t];
      const auto x = predictors(t, prev, next, scale);
      const double y = q[t] / scale;
      for (std::size_t i = 0; i < kNumPredictors; ++i) {
        xty[i] += x[i] * y;
        for (std::size_t j = 0; j < kNumPredictors; ++j) {
          xtx[i * kNumPredictors + j] += x[i] * x[j];
        }
      }
    }
    for (std::size_t i = 0; i < kNumPredictors; ++i) {
      xtx[i * kNumPredictors + i] += config_.ridge_lambda;
    }
    std::vector<double> beta = xty;
    if (!solve_dense(xtx, beta, kNumPredictors)) break;

    // Re-impute the missing rows.
    std::vector<double> next_q = q;
    for (std::size_t t = 0; t < t_len; ++t) {
      if (observed[t]) continue;
      const double prev = t > 0 ? q[t - 1] : q[t];
      const double next = t + 1 < t_len ? q[t + 1] : q[t];
      const auto x = predictors(t, prev, next, scale);
      double pred = 0.0;
      for (std::size_t i = 0; i < kNumPredictors; ++i) pred += beta[i] * x[i];
      next_q[t] = std::max(0.0, pred * scale);
    }
    q = std::move(next_q);
  }
  // Every round refits on the whole window, so the head is computed too.
  return output_steps(std::move(q), ex);
}

}  // namespace fmnet::impute
