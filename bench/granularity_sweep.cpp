// Reproduces the §3 claim of a 50x granularity gain (50 ms -> 1 ms) and
// probes how the benefit of the knowledge-augmented pipeline scales with
// the imputation factor: sweep factor ∈ {10, 25, 50} with everything else
// fixed, reporting the consistency and burst rows for Transformer+KAL+CEM
// vs the naive baseline.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "impute/registry.h"
#include "util/table.h"

using namespace fmnet;

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header("Granularity sweep — imputation factor 10x/25x/50x");

  const core::Scenario s = bench::default_scenario(42, 5'000);
  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);

  Table table({"factor", "method", "a. max", "b. periodic", "d. burst det",
               "e. burst height", "h. empty freq"});

  const std::vector<std::size_t> factors =
      fast_mode() ? std::vector<std::size_t>{10, 50}
                  : std::vector<std::size_t>{10, 25, 50};
  for (const std::size_t factor : factors) {
    // Window = 6 intervals, as in the paper's 300 ms / 50 ms layout.
    core::Scenario sv = s;
    sv.window_ms = 6 * factor;
    sv.factor = factor;
    const core::PreparedData data = engine.prepare(sv, campaign);
    core::Table1Evaluator evaluator(campaign, data);

    const auto naive = engine.fit_method(sv, "linear", data);
    const auto naive_row = evaluator.evaluate(*naive.imputer);

    const auto kal = engine.fit_method(sv, "transformer+kal", data);
    const auto full = impute::Registry::with_cem(kal, core::method_params(sv));
    const auto full_row = evaluator.evaluate(*full.imputer);

    for (const auto* row : {&naive_row, &full_row}) {
      table.add_row({std::to_string(factor) + "x", row->method,
                     Table::fmt(row->max_constraint),
                     Table::fmt(row->periodic_constraint),
                     Table::fmt(row->burst_detection),
                     Table::fmt(row->burst_height),
                     Table::fmt(row->empty_queue_freq)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nshape: the knowledge-augmented pipeline sustains consistency "
      "(a, b ~ 0) at every factor, while the naive baseline degrades as "
      "the factor grows — the 50x setting of the paper is the hardest.\n");
  return 0;
}
