// Quickstart: the whole FMNet pipeline in ~60 lines.
//
//   1. simulate a datacenter switch under websearch+incast traffic,
//   2. sample the coarse telemetry an operator actually has,
//   3. train a knowledge-augmented transformer (EMD loss + KAL),
//   4. impute fine-grained queue lengths and enforce the constraints (CEM),
//   5. check the result against the measurements.
//
// Build & run:  ./examples/quickstart   (seeded; finishes in ~a minute)
//
// Every stage goes through the Engine, so with FMNET_ARTIFACT_DIR set a
// second run loads the campaign and the trained weights from the artifact
// cache instead of recomputing them.
#include <cstdio>

#include "constraints/constraints.h"
#include "example_common.h"
#include "obs/export.h"

using namespace fmnet;

int main() {
  // 1. Simulate: 4-port output-queued switch, shared buffer with dynamic
  //    thresholds, 2 s of websearch+incast traffic.
  core::Scenario s = examples::small_scenario("quickstart", /*seed=*/7,
                                              /*total_ms=*/2'000,
                                              /*epochs=*/10);
  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);
  std::printf("simulated %zu ms over %zu queues\n", campaign.gt.num_ms(),
              campaign.gt.queue_len.size());

  // 2. Sample telemetry: 50 ms periodic samples, LANZ maxima, SNMP
  //    counters; window into 300 ms training examples.
  const core::PreparedData data = engine.prepare(s, campaign);
  std::printf("prepared %zu train / %zu test windows (50 ms -> 1 ms)\n",
              data.split.train.size(), data.split.test.size());

  // 3+4. Transformer with the Knowledge-Augmented Loss, wrapped in the
  //      Constraint Enforcement Module — the paper's full system, by its
  //      registry name.
  auto built = engine.fit_method(s, "transformer+kal+cem", data);
  std::printf("fitted %s on %zu windows\n", built.imputer->name().c_str(),
              data.split.train.size());

  // 5. Impute one unseen window and verify consistency.
  const auto& example = data.split.test.front();
  const std::vector<double> fine = built.imputer->impute(example);
  std::vector<double> normalised(fine.size());
  for (std::size_t t = 0; t < fine.size(); ++t) {
    normalised[t] = fine[t] / example.qlen_scale;
  }
  constraints::Checker v;
  v.add(normalised, example.constraints);
  std::printf(
      "imputed %zu fine-grained points for queue %d; constraint "
      "violations: max %.2g, periodic %.2g, sent %.2g -> %s\n",
      fine.size(), example.queue, v.c1.violation, v.c2.violation,
      v.c3.violation, v.satisfied(1e-5) ? "CONSISTENT" : "violated");

  // 6. With FMNET_METRICS=<path> set, export the run's observability
  //    snapshot (stage spans, artifact hit/miss counters, pool lane
  //    stats) as JSON.
  obs::finalize();
  return 0;
}
