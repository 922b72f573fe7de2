// Robustness-sweep harness: deterministic per-severity EMD/MAE curves,
// severity 0 bit-identical to the clean pipeline, and error non-decreasing
// in severity for the linear imputer on the smoke fault profile. Labelled
// `robustness`: the CI robustness job runs exactly this suite.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/robustness.h"
#include "core/scenario.h"
#include "impute/registry.h"

namespace fmnet {
namespace {

/// The committed examples/scenarios/robustness.scn fault profile, inlined
/// so the test is independent of the source-tree layout, over a shorter
/// campaign (600 ms vs 2400 ms) so each test process sweeps in seconds.
/// Keep the faults block in sync with the file (the CI smoke job runs the
/// full file through the CLI).
core::Scenario smoke_scenario() {
  return core::parse_scenario_string(R"(
name = robustness-smoke

[campaign]
seed = 5
ports = 2
buffer = 200
slots-per-ms = 10
ms = 600
shard-ms = 300

[data]
window-ms = 300
factor = 50

[faults]
seed = 7
periodic-drop = 0.3
lanz-drop = 0.3
noise = 4
snmp-wrap-bits = 32

methods = linear, rate
)");
}

const std::vector<double> kSeverities = {0.0, 0.5, 1.0};

/// One shared sweep for the assertions below (the campaign alone is the
/// expensive part; run it once). Store disabled: everything is computed
/// in-process.
const core::RobustnessCurves& shared_sweep() {
  static const core::RobustnessCurves kCurves = [] {
    core::Engine engine{core::ArtifactStore()};
    return core::run_robustness_sweep(engine, smoke_scenario(), kSeverities);
  }();
  return kCurves;
}

double point_at(const core::RobustnessCurves& curves,
                const std::string& method, double severity, bool emd) {
  for (const auto& p : curves.points) {
    if (p.method == method && p.severity == severity) {
      return emd ? p.emd : p.mae;
    }
  }
  ADD_FAILURE() << "no point for " << method << " @ " << severity;
  return -1.0;
}

TEST(Robustness, SweepShapeIsSeverityMajor) {
  const auto& curves = shared_sweep();
  EXPECT_EQ(curves.scenario_name, "robustness-smoke");
  ASSERT_EQ(curves.severities, kSeverities);
  ASSERT_EQ(curves.methods, (std::vector<std::string>{"linear", "rate"}));
  ASSERT_EQ(curves.points.size(), kSeverities.size() * curves.methods.size());
  std::size_t i = 0;
  for (const double sev : kSeverities) {
    for (const auto& method : curves.methods) {
      EXPECT_EQ(curves.points[i].severity, sev);
      EXPECT_EQ(curves.points[i].method, method);
      ++i;
    }
  }
}

TEST(Robustness, SameSeedProducesIdenticalJson) {
  const auto& first = shared_sweep();
  core::Engine engine{core::ArtifactStore()};
  const auto second =
      core::run_robustness_sweep(engine, smoke_scenario(), kSeverities);
  // Byte-identical report: the sweep is a pure function of the scenario.
  EXPECT_EQ(core::robustness_json(first), core::robustness_json(second));
}

TEST(Robustness, SeverityZeroEqualsCleanPipeline) {
  // A sweep point at severity 0 must be the *clean* pipeline: the same
  // numbers a scenario without any faults block produces.
  core::Scenario clean = smoke_scenario();
  clean.faults = faults::FaultConfig{};
  ASSERT_FALSE(clean.faults.enabled());
  core::Engine engine{core::ArtifactStore()};
  const auto baseline = core::run_robustness_sweep(engine, clean, {0.0});

  const auto& curves = shared_sweep();
  for (const auto& method : curves.methods) {
    EXPECT_EQ(point_at(curves, method, 0.0, /*emd=*/true),
              point_at(baseline, method, 0.0, /*emd=*/true));
    EXPECT_EQ(point_at(curves, method, 0.0, /*emd=*/false),
              point_at(baseline, method, 0.0, /*emd=*/false));
  }
}

TEST(Robustness, LinearErrorIsMonotoneInSeverity) {
  // The linear interpolator has no way to reject corrupted anchors, so its
  // error grows with severity on this profile. (The rate estimator's EMD
  // is *not* monotone — SNMP jitter can cancel — so only `linear` is
  // asserted here; keep CI in sync.)
  const auto& curves = shared_sweep();
  for (const bool emd : {true, false}) {
    double prev = -1.0;
    for (const double sev : kSeverities) {
      const double v = point_at(curves, "linear", sev, emd);
      EXPECT_GE(v, prev) << (emd ? "emd" : "mae") << " regressed at severity "
                         << sev;
      prev = v;
    }
  }
  // And the degradation is real, not flat.
  EXPECT_GT(point_at(curves, "linear", 1.0, true),
            point_at(curves, "linear", 0.0, true));
}

TEST(Robustness, SweepEqualsPerWindowImputeScoring) {
  // The sweep scores batched outputs from one forward per base; every
  // point must equal scoring each test window through impute() on its
  // own, with "+cem" wrapped around the fitted base as Registry::with_cem
  // does.
  core::Scenario s = smoke_scenario();
  s.methods = {"rate+cem", "linear", "rate"};
  const std::vector<double> severities = {0.0, 1.0};
  core::Engine engine{core::ArtifactStore()};
  const core::RobustnessCurves curves =
      core::run_robustness_sweep(engine, s, severities);
  ASSERT_EQ(curves.points.size(), severities.size() * s.methods.size());

  const core::Campaign campaign = engine.campaign(s.campaign);
  std::size_t k = 0;
  for (const double severity : severities) {
    core::Scenario sv = s;
    sv.faults = s.faults.at_severity(severity);
    const core::PreparedData data = engine.prepare(sv, campaign);
    std::map<std::string, impute::BuiltImputer> fitted;
    for (const auto& method : s.methods) {
      const std::string base = impute::Registry::base_method(method);
      if (fitted.count(base) == 0) {
        fitted.emplace(base, engine.fit_method(sv, base, data));
      }
      const impute::BuiltImputer built =
          method == base ? fitted.at(base)
                         : impute::Registry::with_cem(
                               fitted.at(base), core::method_params(sv));
      double emd = 0.0;
      double mae = 0.0;
      for (const auto& ex : data.split.test) {
        const std::vector<double> imputed = built.imputer->impute(ex);
        double cum = 0.0;
        double e = 0.0;
        double m = 0.0;
        for (std::size_t t = 0; t < imputed.size(); ++t) {
          const double diff =
              imputed[t] - static_cast<double>(ex.target[t]) * ex.qlen_scale;
          cum += diff;
          e += std::abs(cum);
          m += std::abs(diff);
        }
        emd += e / static_cast<double>(imputed.size());
        mae += m / static_cast<double>(imputed.size());
      }
      const auto n = static_cast<double>(data.split.test.size());
      const core::RobustnessPoint& p = curves.points[k++];
      EXPECT_EQ(p.method, method);
      EXPECT_EQ(p.severity, severity);
      EXPECT_EQ(p.emd, emd / n) << method << " @ " << severity;
      EXPECT_EQ(p.mae, mae / n) << method << " @ " << severity;
    }
  }
}

TEST(Robustness, JsonCarriesSchemaAndAllPoints) {
  const auto& curves = shared_sweep();
  const std::string json = core::robustness_json(curves);
  EXPECT_NE(json.find("\"schema\": \"fmnet.robustness.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"robustness-smoke\""),
            std::string::npos);
  for (const auto& p : curves.points) {
    EXPECT_NE(json.find("\"" + p.method + "\""), std::string::npos);
  }
}

}  // namespace
}  // namespace fmnet
