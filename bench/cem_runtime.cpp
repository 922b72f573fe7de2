// Reproduces the §4 runtime claim: "The average time for CEM to correct a
// 50 ms transformer output is 1.47 s, a significant improvement compared to
// FM alone which did not terminate."
//
// Two parts:
//
//  1. Engine comparison on the campaign test split — the specialised exact
//     repair vs the smtlite branch-and-bound that mirrors the paper's Z3
//     usage, cold and with the serving-path accelerators.
//
//  2. The overlapping-window serving workload: a window of one coarse
//     interval advanced by half an interval per step, each window repaired
//     on its own (correct_window) with the smtlite engine under three
//     configurations — cold, warm-started from the window's fast repair,
//     and the content-addressed repair cache. All three must produce
//     byte-identical repairs (the bench exits non-zero otherwise — CI's
//     cache-correctness check), and the per-window medians feed the
//     BENCH_cem.json perf gate:
//       bench.cem.{cold,warm,cache}.win_per_s
//       bench.cem.warm_speedup / bench.cem.cache_speedup
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "impute/cem.h"
#include "impute/linear_interp.h"
#include "obs/metrics.h"
#include "smt/solve_cache.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace fmnet;

namespace {

// One overlapping window of the serving workload.
struct Window {
  std::vector<double> imputed;
  impute::PacketInterval interval;
};

double median_ms(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header("CEM correction runtime per 50 ms interval");

  const core::Scenario s = bench::default_scenario(42);
  core::Engine eng;
  const core::Campaign campaign = eng.campaign(s.campaign);
  const core::PreparedData data = eng.prepare(s, campaign);
  const std::int64_t factor = data.dataset_config.factor;

  // A deliberately-inconsistent input: the naive baseline, which violates
  // all three constraints, so CEM has real work to do.
  impute::LinearInterpImputer base;

  // ---- Part 1: engine comparison (whole test-split windows) ----
  const std::size_t max_windows = fast_mode() ? 20 : 100;
  Table table({"engine", "windows (50ms)", "total (s)", "mean per 50ms (ms)",
               "objective (pkts moved)"});

  struct EngineRow {
    const char* name;
    impute::CemConfig cfg;
  };
  impute::CemConfig fast_cfg;
  fast_cfg.engine = impute::CemEngine::kFastRepair;
  impute::CemConfig smt_cold_cfg;
  smt_cold_cfg.engine = impute::CemEngine::kSmtBranchAndBound;
  smt_cold_cfg.use_repair_cache = false;
  smt_cold_cfg.warm_start = false;
  impute::CemConfig smt_serving_cfg;
  smt_serving_cfg.engine = impute::CemEngine::kSmtBranchAndBound;
  for (const EngineRow& row :
       {EngineRow{"fast exact repair", fast_cfg},
        EngineRow{"smtlite branch&bound (cold)", smt_cold_cfg},
        EngineRow{"smtlite + warm/cache (serving)", smt_serving_cfg}}) {
    const impute::ConstraintEnforcementModule cem(row.cfg);
    double total_seconds = 0.0;
    std::int64_t total_objective = 0;
    std::size_t windows = 0;
    for (const auto& ex : data.split.test) {
      if (windows >= max_windows) break;
      const auto imputed = base.impute(ex);
      const auto r = cem.correct(imputed, ex.constraints, ex.qlen_scale);
      total_seconds += r.seconds;
      total_objective += r.objective;
      windows += ex.window / factor;
    }
    table.add_row({row.name, std::to_string(windows),
                   Table::fmt(total_seconds, 3),
                   Table::fmt(1e3 * total_seconds /
                                  static_cast<double>(windows),
                              4),
                   std::to_string(total_objective)});
  }
  table.print(std::cout);

  // ---- Part 2: overlapping-window serving workload ----
  // Slide a one-interval window by half an interval per repair. Each
  // window spans (up to) two coarse intervals: C1 takes the wider of the
  // two reported maxima (and any sampled value, in case a stale report
  // undercuts a sample), C3 the sum of the spanned port budgets — the
  // admissible relaxation a deployment would use for a window that
  // straddles two telemetry intervals.
  const std::int64_t stride = factor / 2;
  const std::size_t target_windows = fast_mode() ? 48 : 160;
  std::vector<Window> workload;
  for (const auto& ex : data.split.test) {
    if (workload.size() >= target_windows) break;
    const auto imputed = base.impute(ex);
    const auto t_len = static_cast<std::int64_t>(imputed.size());
    std::vector<impute::PacketInterval> intervals;
    std::vector<std::int64_t> sample_at;  // the whole window's samples
    for (std::int64_t i = 0; i < t_len / factor; ++i) {
      intervals.push_back(
          impute::packet_interval(ex.constraints, ex.qlen_scale, i));
      sample_at.insert(sample_at.end(), intervals.back().sample_at.begin(),
                       intervals.back().sample_at.end());
    }
    for (std::int64_t begin = 0; begin + factor <= t_len;
         begin += stride) {
      if (workload.size() >= target_windows) break;
      Window w;
      w.imputed.assign(imputed.begin() + begin,
                       imputed.begin() + begin + factor);
      w.interval.sample_at.assign(sample_at.begin() + begin,
                                  sample_at.begin() + begin + factor);
      std::int64_t m_max = 0;
      const std::int64_t i1 = begin / factor;
      const std::int64_t i2 = (begin + factor - 1) / factor;
      for (std::int64_t i = i1; i <= i2; ++i) {
        const impute::PacketInterval& spanned =
            intervals[static_cast<std::size_t>(i)];
        m_max = std::max(m_max, spanned.m_max.value_or(0));
        w.interval.m_out += spanned.m_out;
      }
      for (const std::int64_t v : w.interval.sample_at) {
        m_max = std::max(m_max, v);
      }
      w.interval.m_max = m_max;
      workload.push_back(std::move(w));
    }
  }

  impute::CemConfig cold_cfg = smt_cold_cfg;
  impute::CemConfig warm_cfg = smt_cold_cfg;
  warm_cfg.warm_start = true;
  impute::CemConfig cache_cfg = smt_cold_cfg;
  cache_cfg.use_repair_cache = true;

  const int reps = 3;
  const std::size_t n = workload.size();
  // Per-config best-of-reps median and one reference repair per window
  // for the byte-identity check.
  struct ConfigResult {
    const char* name = "";
    double median = 0.0;
    std::vector<std::vector<double>> repaired;
  };
  ConfigResult cold{"cold", 0.0, {}}, warm{"warm", 0.0, {}},
      cache{"cache", 0.0, {}};

  auto run = [&](const impute::CemConfig& cfg, ConfigResult& out) {
    const impute::ConstraintEnforcementModule cem(cfg);
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<double> ms;
      ms.reserve(n);
      std::vector<std::vector<double>> repaired(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Window& w = workload[i];
        fmnet::Stopwatch clock;
        auto r = cem.correct_window(w.imputed, w.interval);
        ms.push_back(clock.elapsed_ms());
        repaired[i] = std::move(r.corrected);
      }
      const double med = median_ms(std::move(ms));
      if (rep == 0 || med < out.median) out.median = med;
      out.repaired = std::move(repaired);
    }
  };

  run(cold_cfg, cold);
  run(warm_cfg, warm);
  // Cache: prime once (miss path), then measure the hit path.
  smt::SolveCache::global().clear();
  {
    const impute::ConstraintEnforcementModule cem(cache_cfg);
    for (const Window& w : workload) {
      cem.correct_window(w.imputed, w.interval);
    }
  }
  run(cache_cfg, cache);

  // Byte-identity across every configuration (the cache-correctness
  // assertion CI relies on): warm and cached repairs must equal the cold
  // repair exactly.
  for (const ConfigResult* cfg : {&warm, &cache}) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cfg->repaired[i] != cold.repaired[i]) {
        std::fprintf(stderr,
                     "FAIL: %s repair of window %zu differs from cold\n",
                     cfg->name, i);
        return 1;
      }
    }
  }
  std::printf("\n%zu overlapping windows: warm/cache repairs byte-identical "
              "to cold\n",
              n);

  auto& reg = obs::Registry::global();
  Table t2({"config", "median ms/window", "windows/s", "speedup vs cold"});
  for (const ConfigResult* cfg : {&cold, &warm, &cache}) {
    const double wps = 1e3 / cfg->median;
    const double speedup = cold.median / cfg->median;
    std::string gauge("bench.cem.");
    gauge += cfg->name;
    gauge += ".win_per_s";
    reg.gauge(gauge).set(wps);
    reg.gauge(gauge).set_max(wps);
    t2.add_row({cfg->name, Table::fmt(cfg->median, 4), Table::fmt(wps, 1),
                Table::fmt(speedup, 2)});
  }
  const double warm_speedup = cold.median / warm.median;
  const double cache_speedup = cold.median / cache.median;
  reg.gauge("bench.cem.warm_speedup").set(warm_speedup);
  reg.gauge("bench.cem.warm_speedup").set_max(warm_speedup);
  reg.gauge("bench.cem.cache_speedup").set(cache_speedup);
  reg.gauge("bench.cem.cache_speedup").set_max(cache_speedup);
  t2.print(std::cout);

  std::printf(
      "\npaper context: Z3-based CEM took 1.47 s per 50 ms window; FM-alone "
      "never terminated. Both engines here enforce the identical optimum "
      "(cross-checked in tests); the specialised engine shows the cost is "
      "in the solver generality, not the constraint system — and the "
      "warm-start/cache path shows how much of the solver cost a feasible "
      "seed and recurring violation patterns save.\n");
  return 0;
}
