// Buffer provisioning with imputed telemetry (the paper's §2.1 motivating
// scenario): "longitudinal analyses of fine-grained queue length
// measurements will give the operator an idea of the common burst sizes and
// frequencies to inform the trade-off between accommodating bursts and
// reducing switch cost".
//
// This example compares three views of the same network:
//   * coarse view  — what 50 ms periodic samples alone suggest,
//   * imputed view — FMNet's fine-grained reconstruction,
//   * true view    — simulator ground truth (what a perfect monitor sees),
// and derives a per-queue buffer recommendation (p99.9 of queue depth plus
// headroom) from each. The coarse view dramatically under-provisions; the
// imputed view tracks the truth.
#include <algorithm>
#include <cstdio>

#include "example_common.h"
#include "obs/export.h"
#include "util/stats.h"

using namespace fmnet;

namespace {
double recommend_buffer(const std::vector<double>& qlen_series) {
  if (qlen_series.empty()) return 0.0;
  // p99.9 depth with 25% headroom, the kind of rule of thumb an operator
  // would apply to longitudinal data.
  return 1.25 * percentile(qlen_series, 99.9);
}
}  // namespace

int main() {
  std::printf("=== Buffer provisioning from imputed telemetry ===\n");
  const core::Scenario s = examples::small_scenario(
      "buffer-provisioning", /*seed=*/21, /*total_ms=*/3'000, /*epochs=*/10);
  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, campaign);
  auto built = engine.fit_method(s, "transformer+kal+cem", data);
  impute::Imputer& imputer = *built.imputer;

  std::printf("\n%-8s %14s %14s %14s\n", "queue", "coarse-only",
              "FMNet imputed", "ground truth");
  double coarse_total = 0.0;
  double imputed_total = 0.0;
  double truth_total = 0.0;
  const std::size_t queues = campaign.gt.queue_len.size();
  std::vector<std::vector<double>> imputed_series(queues);
  std::vector<std::vector<double>> coarse_series(queues);
  std::vector<std::vector<double>> truth_series(queues);
  for (const auto& ex : data.split.test) {
    const auto q = static_cast<std::size_t>(ex.queue);
    const auto fine = imputer.impute(ex);
    imputed_series[q].insert(imputed_series[q].end(), fine.begin(),
                             fine.end());
    for (std::size_t t = 0; t < ex.window; ++t) {
      truth_series[q].push_back(
          campaign.gt.queue_len[ex.queue][ex.start_ms + t]);
    }
    // Coarse view: hold the periodic sample across each interval.
    for (std::size_t i = 0; i < ex.constraints.sample_idx.size(); ++i) {
      const double v = static_cast<double>(ex.constraints.sample_val[i]) *
                       ex.qlen_scale;
      for (std::int64_t k = 0; k < ex.constraints.coarse_factor; ++k) {
        coarse_series[q].push_back(v);
      }
    }
  }
  for (std::size_t q = 0; q < queues; ++q) {
    const double c = recommend_buffer(coarse_series[q]);
    const double i = recommend_buffer(imputed_series[q]);
    const double t = recommend_buffer(truth_series[q]);
    coarse_total += c;
    imputed_total += i;
    truth_total += t;
    std::printf("%-8zu %11.0f pkt %11.0f pkt %11.0f pkt\n", q, c, i, t);
  }
  std::printf("%-8s %11.0f pkt %11.0f pkt %11.0f pkt\n", "TOTAL",
              coarse_total, imputed_total, truth_total);

  const double coarse_gap = truth_total > 0
                                ? 100.0 * (truth_total - coarse_total) /
                                      truth_total
                                : 0.0;
  const double imputed_gap = truth_total > 0
                                 ? 100.0 * std::abs(truth_total -
                                                    imputed_total) /
                                       truth_total
                                 : 0.0;
  std::printf(
      "\ncoarse-only provisioning misses %.0f%% of the needed buffer;\n"
      "the imputed view is within %.0f%% of the ground-truth "
      "recommendation.\n",
      coarse_gap, imputed_gap);
  obs::finalize();
  return 0;
}
