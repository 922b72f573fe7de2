// Reproduces Table 1: downstream-task performance of the four imputation
// methods — IterativeImputer, Transformer (EMD loss), Transformer+KAL, and
// Transformer+KAL+CEM — over a websearch+incast campaign, 50 ms -> 1 ms
// (50x granularity gain).
//
// Expected shape (paper): IterImputer worst nearly everywhere; KAL improves
// consistency rows a-c and most burst tasks; CEM nullifies rows a-c exactly
// and keeps (or slightly trades) burst-task accuracy. Also reports the mean
// CEM correction time per 50 ms interval (paper: 1.47 s per 50 ms of
// transformer output with Z3; our specialised engine is much faster, the
// point is CEM ≪ FM-alone which never terminates — see
// fm_alone_scalability).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "impute/knowledge_imputer.h"
#include "impute/registry.h"
#include "util/stopwatch.h"

using namespace fmnet;

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header(
      "Table 1 — downstream task errors of the four imputation methods");

  // Headline run: train longer than the multi-model ablations unless the
  // user pinned FMNET_EPOCHS.
  core::Scenario s = bench::default_scenario(42);
  if (std::getenv("FMNET_EPOCHS") == nullptr && !fast_mode()) {
    s.train.epochs = 45;
  }

  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, campaign);
  std::printf("campaign: %d ports, %lld-pkt shared buffer, %zu ms, "
              "%zu train / %zu test windows\n",
              campaign.switch_config.num_ports,
              static_cast<long long>(campaign.switch_config.buffer_size),
              campaign.gt.num_ms(), data.split.train.size(),
              data.split.test.size());
  std::printf("granularity gain: %zu ms -> 1 ms (%zux)\n\n",
              data.dataset_config.factor, data.dataset_config.factor);

  core::Table1Evaluator evaluator(campaign, data);
  std::vector<core::Table1Row> rows;

  auto fit_timed = [&](const char* method) {
    Stopwatch sw;
    auto built = engine.fit_method(s, method, data);
    std::printf("[%s] fitted in %.1fs\n", built.imputer->name().c_str(),
                sw.elapsed_seconds());
    return built;
  };

  // 1. IterativeImputer.
  {
    auto iter = fit_timed("iterative");
    Stopwatch sw;
    rows.push_back(evaluator.evaluate(*iter.imputer));
    std::printf("[IterImputer] evaluated in %.1fs\n", sw.elapsed_seconds());
  }

  // 2. Transformer (EMD loss, no knowledge).
  {
    auto plain = fit_timed("transformer");
    rows.push_back(evaluator.evaluate(*plain.imputer));
  }

  // 3. Transformer + KAL, and 4. + CEM wrapped around the same fit.
  auto kal = fit_timed("transformer+kal");
  rows.push_back(evaluator.evaluate(*kal.imputer));

  const auto full_built =
      impute::Registry::with_cem(kal, core::method_params(s));
  auto& full =
      dynamic_cast<impute::KnowledgeAugmentedImputer&>(*full_built.imputer);
  rows.push_back(evaluator.evaluate(full));

  std::printf("\n");
  core::print_table1(rows, std::cout);

  const double per_window_ms =
      full.cem_calls() > 0
          ? 1e3 * full.total_cem_seconds() /
                (static_cast<double>(full.cem_calls()) *
                 (300.0 / static_cast<double>(data.dataset_config.factor)))
          : 0.0;
  std::printf(
      "\nCEM: %lld windows corrected, %.3f ms per 50 ms interval "
      "(paper reports 1.47 s with Z3; shape claim: CEM is fast enough to "
      "run inline, unlike FM-alone), %lld infeasible\n",
      static_cast<long long>(full.cem_calls()), per_window_ms,
      static_cast<long long>(full.infeasible_windows()));

  // Shape assertions printed for EXPERIMENTS.md.
  const auto& iter_row = rows[0];
  const auto& tr = rows[1];
  const auto& tr_kal = rows[2];
  const auto& tr_full = rows[3];
  std::printf("\nshape checks:\n");
  std::printf("  CEM nullifies a-c: %s\n",
              (tr_full.max_constraint < 1e-5 &&
               tr_full.periodic_constraint < 1e-5 &&
               tr_full.sent_constraint < 1e-5)
                  ? "PASS"
                  : "FAIL");
  std::printf("  KAL improves sent-count consistency vs plain: %s\n",
              tr_kal.sent_constraint <= tr.sent_constraint + 1e-9 ? "PASS"
                                                                  : "FAIL");
  const double iter_score = iter_row.burst_detection + iter_row.burst_height +
                            iter_row.empty_queue_freq;
  const double full_score = tr_full.burst_detection + tr_full.burst_height +
                            tr_full.empty_queue_freq;
  std::printf("  full system beats IterImputer on burst tasks: %s\n",
              full_score < iter_score ? "PASS" : "FAIL");
  return 0;
}
