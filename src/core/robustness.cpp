#include "core/robustness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/span.h"
#include "util/check.h"

namespace fmnet::core {

namespace {

std::string fmt_real(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

/// Per-example (emd, mae) in packets against the clean ground truth.
std::pair<double, double> score_example(const std::vector<double>& imputed,
                                        const telemetry::ImputationExample&
                                            ex) {
  FMNET_CHECK_EQ(imputed.size(), ex.target.size());
  double cum = 0.0;
  double emd = 0.0;
  double mae = 0.0;
  for (std::size_t t = 0; t < imputed.size(); ++t) {
    const double truth =
        static_cast<double>(ex.target[t]) * ex.qlen_scale;
    const double diff = imputed[t] - truth;
    cum += diff;
    emd += std::abs(cum);
    mae += std::abs(diff);
  }
  const auto n = static_cast<double>(imputed.size());
  return {emd / n, mae / n};
}

}  // namespace

RobustnessCurves run_robustness_sweep(
    Engine& engine, const Scenario& s,
    const std::vector<double>& severities) {
  obs::ScopedSpan span("robustness.sweep");
  FMNET_CHECK(!severities.empty(), "robustness sweep: empty severity grid");
  for (const double v : severities) FMNET_CHECK_GE(v, 0.0);

  RobustnessCurves curves;
  curves.scenario_name = s.name;
  curves.severities = severities;
  curves.methods = s.methods;

  const Campaign campaign = engine.campaign(s.campaign);

  for (const double severity : severities) {
    Scenario sv = s;
    sv.faults = s.faults.at_severity(severity);
    const PreparedData data = engine.prepare(sv, campaign);
    const std::vector<telemetry::ImputationExample>& test = data.split.test;

    // Engine::run's method loop: each base fitted and forwarded once per
    // severity, a method and its +cem form sharing the forward.
    engine.impute_methods(
        sv, data,
        [&](const std::string& method, const impute::Imputer&,
            const std::vector<std::vector<double>>& outputs) {
          FMNET_CHECK_EQ(outputs.size(), test.size());
          double emd = 0.0;
          double mae = 0.0;
          for (std::size_t w = 0; w < test.size(); ++w) {
            const auto [e, m] = score_example(outputs[w], test[w]);
            emd += e;
            mae += m;
          }
          const auto n =
              static_cast<double>(std::max<std::size_t>(1, test.size()));
          curves.points.push_back(
              RobustnessPoint{method, severity, emd / n, mae / n});
        });
  }
  return curves;
}

std::string robustness_json(const RobustnessCurves& curves) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"fmnet.robustness.v1\",\n";
  os << "  \"scenario\": \"" << curves.scenario_name << "\",\n";
  os << "  \"severities\": [";
  for (std::size_t i = 0; i < curves.severities.size(); ++i) {
    if (i > 0) os << ", ";
    os << fmt_real(curves.severities[i]);
  }
  os << "],\n";
  os << "  \"methods\": [";
  for (std::size_t i = 0; i < curves.methods.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << curves.methods[i] << "\"";
  }
  os << "],\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < curves.points.size(); ++i) {
    const auto& p = curves.points[i];
    os << "    {\"method\": \"" << p.method
       << "\", \"severity\": " << fmt_real(p.severity)
       << ", \"emd\": " << fmt_real(p.emd)
       << ", \"mae\": " << fmt_real(p.mae) << "}"
       << (i + 1 < curves.points.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

void write_robustness_json(const RobustnessCurves& curves,
                           const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  FMNET_CHECK(out.good(), "cannot write robustness report " + path);
  out << robustness_json(curves);
  out.flush();
  FMNET_CHECK(out.good(), "failed writing robustness report " + path);
}

}  // namespace fmnet::core
