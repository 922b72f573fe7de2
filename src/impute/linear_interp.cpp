#include "impute/linear_interp.h"

#include <algorithm>

#include "util/check.h"

namespace fmnet::impute {

std::vector<double> LinearInterpImputer::impute(const ImputationExample& ex) {
  const auto t_len = static_cast<std::int64_t>(ex.window);
  const std::int64_t factor = ex.constraints.coarse_factor;
  FMNET_CHECK_GT(factor, 0);

  // Anchor points: (index, packets).
  std::vector<std::pair<std::int64_t, double>> anchors;
  for (std::size_t s = 0; s < ex.constraints.sample_idx.size(); ++s) {
    anchors.emplace_back(
        ex.constraints.sample_idx[s],
        static_cast<double>(ex.constraints.sample_val[s]) * ex.qlen_scale);
  }
  for (std::size_t w = 0; w < ex.constraints.window_max.size(); ++w) {
    const std::int64_t mid =
        static_cast<std::int64_t>(w) * factor + factor / 2;
    anchors.emplace_back(mid, static_cast<double>(
                                  ex.constraints.window_max[w]) *
                                  ex.qlen_scale);
  }
  std::sort(anchors.begin(), anchors.end());

  // Only the steps the example asks for: each is a function of the
  // anchors alone.
  const auto from = static_cast<std::int64_t>(ex.output_from);
  std::vector<double> out(static_cast<std::size_t>(t_len - from), 0.0);
  FMNET_CHECK(!anchors.empty(), "no anchor points");
  for (std::int64_t t = from; t < t_len; ++t) {
    // Find surrounding anchors.
    auto it = std::lower_bound(
        anchors.begin(), anchors.end(), std::make_pair(t, -1.0));
    double v = 0.0;
    if (it == anchors.begin()) {
      v = it->second;
    } else if (it == anchors.end()) {
      v = (it - 1)->second;
    } else {
      const auto& [x1, y1] = *(it - 1);
      const auto& [x2, y2] = *it;
      v = x2 == x1 ? y2
                   : y1 + (y2 - y1) * static_cast<double>(t - x1) /
                              static_cast<double>(x2 - x1);
    }
    out[static_cast<std::size_t>(t - from)] = std::max(0.0, v);
  }
  return out;
}

}  // namespace fmnet::impute
