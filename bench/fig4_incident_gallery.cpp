// Reproduces Figure 4: the same queue-length incident imputed by
// (a) IterativeImputer, (b) Transformer-only, (c) Transformer+KAL, and
// (d) Transformer+KAL+CEM, rendered as ASCII and dumped to fig4_data.csv.
//
// Expected shape: (a) connect-the-dots, (b) finds the burst location but
// misses the known max, (c) approaches the max, (d) exactly consistent.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "impute/registry.h"
#include "constraints/constraints.h"
#include "util/csv.h"

using namespace fmnet;

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header("Figure 4 — one incident, four imputation methods");

  const core::Scenario s = bench::default_scenario(42, 6'000);
  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, campaign);

  // Fit the four variants; +CEM wraps the fitted KAL model.
  const auto iter = engine.fit_method(s, "iterative", data);
  const auto plain = engine.fit_method(s, "transformer", data);
  const auto kal = engine.fit_method(s, "transformer+kal", data);
  const auto full = impute::Registry::with_cem(kal, core::method_params(s));

  // Pick the most bursty *test* window: largest max/mean contrast.
  const telemetry::ImputationExample* incident = nullptr;
  double best_score = -1.0;
  for (const auto& ex : data.split.test) {
    double peak = 0.0;
    double mean = 0.0;
    for (const float v : ex.target) {
      peak = std::max(peak, static_cast<double>(v));
      mean += v;
    }
    mean /= static_cast<double>(ex.target.size());
    const double score = peak - mean;
    if (score > best_score) {
      best_score = score;
      incident = &ex;
    }
  }
  std::printf("incident: queue %d, t = %zu..%zu ms\n\n", incident->queue,
              incident->start_ms, incident->start_ms + incident->window);

  std::vector<double> truth(incident->window);
  for (std::size_t t = 0; t < incident->window; ++t) {
    truth[t] = campaign.gt.queue_len[incident->queue][incident->start_ms + t];
  }
  const auto a = iter.imputer->impute(*incident);
  const auto b = plain.imputer->impute(*incident);
  const auto c = kal.imputer->impute(*incident);
  const auto d = full.imputer->impute(*incident);

  const double v_max = *std::max_element(truth.begin(), truth.end());
  auto decimate = [](const std::vector<double>& v) {
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size(); i += 3) out.push_back(v[i]);
    return out;
  };
  std::printf("ASCII rendering (1 char = 3 ms, height = queue length):\n");
  bench::ascii_plot("ground truth", decimate(truth), v_max);
  bench::ascii_plot("(a) IterImputer", decimate(a), v_max);
  bench::ascii_plot("(b) Transformer", decimate(b), v_max);
  bench::ascii_plot("(c) +KAL", decimate(c), v_max);
  bench::ascii_plot("(d) +KAL+CEM", decimate(d), v_max);

  // Per-method consistency on this incident.
  std::printf("\nper-method constraint violations on the incident:\n");
  std::printf("%-18s %12s %12s %12s\n", "method", "max(C1)", "periodic(C2)",
              "sent(C3)");
  auto report = [&](const char* label, const std::vector<double>& series) {
    std::vector<double> norm(series.size());
    for (std::size_t t = 0; t < series.size(); ++t) {
      norm[t] = series[t] / incident->qlen_scale;
    }
    constraints::Checker v;
    v.add(norm, incident->constraints);
    std::printf("%-18s %12.4f %12.4f %12.4f\n", label, v.c1.violation,
                v.c2.violation, v.c3.violation);
  };
  report("IterImputer", a);
  report("Transformer", b);
  report("+KAL", c);
  report("+KAL+CEM", d);

  std::vector<double> t_axis(incident->window);
  for (std::size_t t = 0; t < t_axis.size(); ++t) {
    t_axis[t] = static_cast<double>(incident->start_ms + t);
  }
  write_csv("fig4_data.csv",
            {"t_ms", "truth", "iterimputer", "transformer", "kal",
             "kal_cem"},
            {t_axis, truth, a, b, c, d});
  std::printf("\nwrote fig4_data.csv (%zu rows)\n", t_axis.size());
  return 0;
}
