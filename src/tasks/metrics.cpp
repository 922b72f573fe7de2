#include "tasks/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fmnet::tasks {

namespace {

double mean_interarrival(const std::vector<Burst>& bursts) {
  if (bursts.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < bursts.size(); ++i) {
    acc += static_cast<double>(bursts[i].start - bursts[i - 1].start);
  }
  return acc / static_cast<double>(bursts.size() - 1);
}

double empty_fraction(const std::vector<double>& series) {
  if (series.empty()) return 0.0;
  std::size_t zero = 0;
  for (const double v : series) {
    if (v <= 0.0) ++zero;
  }
  return static_cast<double>(zero) / static_cast<double>(series.size());
}

double ratio_error(double value, double reference, double eps = 1e-9) {
  return std::abs(value - reference) / (reference + eps);
}

}  // namespace

BurstMetrics burst_metrics(const std::vector<double>& truth,
                           const std::vector<double>& imputed,
                           double threshold) {
  FMNET_CHECK_EQ(truth.size(), imputed.size());
  BurstMetrics m;

  const auto truth_bursts = detect_bursts(truth, threshold);
  const auto imp_bursts = detect_bursts(imputed, threshold);

  // d. detection: 1 - Jaccard over burst-covered steps.
  const auto ti = burst_indicator(truth, threshold);
  const auto ii = burst_indicator(imputed, threshold);
  std::size_t inter = 0;
  std::size_t uni = 0;
  for (std::size_t t = 0; t < ti.size(); ++t) {
    inter += (ti[t] && ii[t]) ? 1 : 0;
    uni += (ti[t] || ii[t]) ? 1 : 0;
  }
  m.detection_error =
      uni == 0 ? 0.0
               : 1.0 - static_cast<double>(inter) / static_cast<double>(uni);

  // e. height: per truth burst, relative error of the overlapping imputed
  // burst's height (a missed burst scores 1).
  if (truth_bursts.empty()) {
    m.height_error = imp_bursts.empty() ? 0.0 : 1.0;
  } else {
    double acc = 0.0;
    for (const Burst& tb : truth_bursts) {
      double matched_height = -1.0;
      for (const Burst& ib : imp_bursts) {
        if (tb.overlaps(ib)) {
          matched_height = std::max(matched_height, ib.height);
        }
      }
      if (matched_height < 0.0) {
        acc += 1.0;
      } else {
        // Cap per-burst error at 1 so one wild over-prediction cannot
        // dominate the mean (a fully missed burst also scores 1).
        acc += std::min(1.0, ratio_error(matched_height, tb.height));
      }
    }
    m.height_error = acc / static_cast<double>(truth_bursts.size());
  }

  // f. frequency.
  m.frequency_error = ratio_error(static_cast<double>(imp_bursts.size()),
                                  static_cast<double>(truth_bursts.size()));

  // g. inter-arrival time of consecutive bursts. Defined only when the
  // truth has at least two bursts; otherwise score 0 when the imputation
  // also lacks an inter-arrival signal and 1 when it invents one.
  if (truth_bursts.size() < 2) {
    m.interarrival_error = imp_bursts.size() < 2 ? 0.0 : 1.0;
  } else if (imp_bursts.size() < 2) {
    m.interarrival_error = 1.0;
  } else {
    m.interarrival_error = ratio_error(mean_interarrival(imp_bursts),
                                       mean_interarrival(truth_bursts));
  }

  // h. empty-queue frequency.
  m.empty_freq_error =
      ratio_error(empty_fraction(imputed), empty_fraction(truth));
  return m;
}

double concurrent_burst_error(
    const std::vector<std::vector<double>>& truth_queues,
    const std::vector<std::vector<double>>& imputed_queues,
    double threshold) {
  FMNET_CHECK_EQ(truth_queues.size(), imputed_queues.size());
  FMNET_CHECK(!truth_queues.empty(), "no queues");
  const std::size_t t_len = truth_queues.front().size();

  auto mean_concurrency =
      [&](const std::vector<std::vector<double>>& queues) {
        std::vector<std::int64_t> concurrent(t_len, 0);
        for (const auto& q : queues) {
          FMNET_CHECK_EQ(q.size(), t_len);
          const auto ind = burst_indicator(q, threshold);
          for (std::size_t t = 0; t < t_len; ++t) concurrent[t] += ind[t];
        }
        double acc = 0.0;
        for (const std::int64_t c : concurrent) {
          acc += static_cast<double>(c);
        }
        return acc / static_cast<double>(t_len);
      };

  const double truth_cc = mean_concurrency(truth_queues);
  const double imp_cc = mean_concurrency(imputed_queues);
  return std::abs(imp_cc - truth_cc) / (truth_cc + 1e-9);
}

}  // namespace fmnet::tasks
