// The paper's thesis in one program: FM alone is sound but unscalable; ML
// alone is scalable but inconsistent; the hybrid gets both.
//
//   Act 1 — FM-alone (per-slot switch model, smtlite) imputes a toy
//           scenario exactly... and times out a few horizons later.
//   Act 2 — The ML imputer handles a full campaign instantly but violates
//           the measurements.
//   Act 3 — CEM makes the ML output consistent at negligible cost.
#include <cstdio>

#include "constraints/constraints.h"
#include "example_common.h"
#include "impute/cem.h"
#include "impute/fm_model.h"
#include "obs/export.h"
#include "util/rng.h"

using namespace fmnet;

int main() {
  std::printf("=== Act 1: Formal Methods alone ===\n");
  impute::FmSwitchModelConfig fm_cfg;
  fm_cfg.num_queues = 2;
  fm_cfg.buffer_size = 12;
  fm_cfg.max_ingress_per_slot = 3;
  fm_cfg.slots_per_interval = 6;
  impute::FmSwitchModel fm(fm_cfg);

  fmnet::Rng rng(5);
  for (const std::int64_t horizon : {12LL, 24LL, 48LL}) {
    std::vector<std::vector<std::int64_t>> arrivals(
        2, std::vector<std::int64_t>(static_cast<std::size_t>(horizon)));
    for (auto& qa : arrivals) {
      for (auto& a : qa) a = rng.uniform_int(0, 3);
    }
    impute::FmSwitchModelConfig cfg = fm_cfg;
    cfg.slots_per_interval = horizon / 2;
    impute::FmSwitchModel model(cfg);
    const auto m = model.measure(arrivals);
    smt::Budget budget;
    budget.max_seconds = 10.0;
    const auto r = model.impute(m, budget);
    std::printf(
        "  horizon %3lld slots: %-8s (%.2fs, %lld decisions)\n",
        static_cast<long long>(horizon),
        r.status == smt::Status::kSat ? "SOLVED"
        : r.status == smt::Status::kUnknown ? "TIMEOUT" : "UNSAT?",
        r.seconds, static_cast<long long>(r.decisions));
  }
  std::printf("  -> sound, but the search space explodes with the "
              "horizon (paper §2.3: Z3 ran 24h without finishing).\n\n");

  std::printf("=== Act 2: ML alone ===\n");
  const core::Scenario s = examples::small_scenario(
      "fm-vs-ml", /*seed=*/11, /*total_ms=*/2'000, /*epochs=*/8);
  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, campaign);
  // Plain transformer, EMD loss, no KAL and no CEM: ML with no formal
  // methods anywhere.
  auto ml = engine.fit_method(s, "transformer", data);

  const auto& ex = data.split.test.front();
  auto raw = ml.imputer->impute(ex);
  std::vector<double> norm(raw.size());
  for (std::size_t t = 0; t < raw.size(); ++t) {
    norm[t] = raw[t] / ex.qlen_scale;
  }
  constraints::Checker v;
  v.add(norm, ex.constraints);
  std::printf(
      "  transformer imputed a %zu ms window instantly, but violates the "
      "measurements: max %.3f, periodic %.3f, sent %.1f\n",
      raw.size(), v.c1.violation, v.c2.violation, v.c3.violation);
  std::printf("  -> scalable, but nothing guarantees the answer could "
              "have happened.\n\n");

  std::printf("=== Act 3: ML + FM (CEM) ===\n");
  impute::ConstraintEnforcementModule cem;
  const auto corrected = cem.correct(raw, ex.constraints, ex.qlen_scale);
  std::vector<double> cnorm(corrected.corrected.size());
  for (std::size_t t = 0; t < cnorm.size(); ++t) {
    cnorm[t] = corrected.corrected[t] / ex.qlen_scale;
  }
  v = {};
  v.add(cnorm, ex.constraints);
  std::printf(
      "  CEM corrected the window in %.4fs, moving %lld packets; "
      "violations now: max %.2g, periodic %.2g, sent %.2g\n",
      corrected.seconds, static_cast<long long>(corrected.objective),
      v.c1.violation, v.c2.violation, v.c3.violation);
  std::printf("  -> the hybrid is both scalable and provably consistent "
              "with every measurement.\n");
  obs::finalize();
  return 0;
}
