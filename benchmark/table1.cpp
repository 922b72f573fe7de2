// Table-1 workloads: the scenario in scenarios/table1.scn run to Table 1
// through core::Engine.
//
//   table1-cold      every operation is Engine::run on an empty artifact
//                    store: simulate, prepare, train, evaluate.
//   table1-warm-smt  every operation is Engine::run with cem.engine = smt on
//                    the store the set-up populated: artifact loads, B=1
//                    forward, SMT repair and evaluation.
//
// Set-up (both): a cold fast-engine Engine::run that populates the
// reference store and yields the reference rows every operation must
// reproduce bit for bit. Before each operation the process-wide SMT repair
// cache and tensor pool are emptied, so every operation starts from the
// state a fresh `fmnet_cli run` process has.
#include <array>
#include <cstring>
#include <map>
#include <sstream>

#include "core/engine.h"
#include "harness.h"
#include "obs/metrics.h"
#include "smt/solve_cache.h"
#include "tensor/pool.h"
#include "util/hash.h"

namespace fmnet::bench {

namespace {

constexpr int kSetupReps = 3;

core::Scenario load_table1(const Options& opt, bool smt) {
  core::Scenario s =
      core::load_scenario_file(opt.scenario_dir + "/table1.scn");
  s.campaign.seed = opt.seed;
  if (smt) s.cem.engine = impute::CemEngine::kSmtBranchAndBound;
  return s;
}

void reset_process_caches() {
  smt::SolveCache::global().clear();
  tensor::pool::clear();
}

std::array<double, 10> row_values(const core::Table1Row& r) {
  return {r.max_constraint,     r.periodic_constraint, r.sent_constraint,
          r.burst_detection,    r.burst_height,        r.burst_frequency,
          r.burst_interarrival, r.empty_queue_freq,    r.concurrent_bursts,
          r.c4_backlog};
}

/// Bit-for-bit equality of two Table-1 row sets.
bool same_rows(const std::vector<core::Table1Row>& a,
               const std::vector<core::Table1Row>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::array<double, 10> x = row_values(a[i]);
    const std::array<double, 10> y = row_values(b[i]);
    if (a[i].method != b[i].method ||
        std::memcmp(x.data(), y.data(), sizeof x) != 0) {
      return false;
    }
  }
  return true;
}

std::string table_hash(const std::vector<core::Table1Row>& rows) {
  std::ostringstream os;
  core::print_table1(rows, os);
  return util::stable_key(os.str());
}

/// Engine::run's stage sequence made of the same public calls, each timed
/// from outside; the base imputers are wrapped in TimedImputer so forward,
/// CEM and evaluation separate. Adds the stage times to `t`.
std::vector<core::Table1Row> run_decomposed(core::Engine& engine,
                                            const core::Scenario& s,
                                            LayerTimes& t) {
  const double t0 = now_s();
  const core::Campaign campaign = engine.campaign(s.campaign);
  const double t1 = now_s();
  const core::PreparedData data = engine.prepare(s, campaign);
  const double t2 = now_s();
  const core::Table1Evaluator evaluator(campaign, data,
                                        s.burst_threshold_fraction, s.c4);
  t.simulate += t1 - t0;
  t.prepare += t2 - t1;
  t.evaluate_self += now_s() - t2;

  impute::MethodParams params;
  params.model = s.model;
  params.train = s.train;
  params.autoencoder = s.autoencoder;
  params.autoencoder.window = static_cast<std::int64_t>(s.window_ms);
  params.cem = s.cem;
  params.pool = engine.pool();

  // As in Engine::run, each base is fitted once and "x+cem" wraps CEM
  // around the fitted x; here the base's imputer is its forward timer.
  std::map<std::string, impute::BuiltImputer> fitted;
  std::vector<core::Table1Row> rows;
  for (const std::string& method : s.methods) {
    const std::string base = impute::Registry::base_method(method);
    auto it = fitted.find(base);
    if (it == fitted.end()) {
      const double tf = now_s();
      impute::BuiltImputer b = engine.fit_method(s, base, data);
      t.fit += now_s() - tf;
      b.imputer = std::make_shared<TimedImputer>(b.imputer);
      it = fitted.emplace(base, b).first;
    }
    auto& forward = static_cast<TimedImputer&>(*it->second.imputer);
    std::shared_ptr<TimedImputer> corrected;
    if (method != base) {
      corrected = std::make_shared<TimedImputer>(
          impute::Registry::with_cem(it->second, params).imputer);
    }
    const double f0 = forward.seconds();
    const double te = now_s();
    rows.push_back(evaluator.evaluate(corrected ? *corrected : forward));
    const double eval = now_s() - te;
    const double fwd = forward.seconds() - f0;
    const double outer = corrected ? corrected->seconds() : fwd;
    t.forward += fwd;
    t.cem += outer - fwd;
    t.evaluate_self += eval - outer;
  }
  for (const auto& [base, b] : fitted) {
    t.forward_windows += static_cast<const TimedImputer&>(*b.imputer).windows();
  }
  t.wall += now_s() - t0;
  return rows;
}

}  // namespace

void run_table1(const Options& opt, bool smt, Result& result) {
  const core::Scenario fast = load_table1(opt, /*smt=*/false);
  const core::Scenario scenario = load_table1(opt, smt);
  const std::string ref_store = opt.work_dir + "/reference";
  const std::string op_store = opt.work_dir + "/op";

  // ---- set-up: populate the reference store, keep the reference rows ----
  std::vector<double> setup_s;
  std::vector<core::Table1Row> reference;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    reset_dir(ref_store);
    reset_process_caches();
    const double t0 = now_s();
    core::Engine engine{core::ArtifactStore(ref_store)};
    std::vector<core::Table1Row> rows = engine.run(fast);
    setup_s.push_back(now_s() - t0);
    if (rep > 0) result.gate("setup_repeats", same_rows(rows, reference));
    reference = std::move(rows);
  }
  std::int64_t windows_per_op = 0;
  {
    core::Engine engine{core::ArtifactStore(ref_store)};
    const core::Campaign c = engine.campaign(fast.campaign);
    windows_per_op = static_cast<std::int64_t>(
        engine.prepare(fast, c).split.test.size() * fast.methods.size());
  }

  // ---- timed operations ----
  // One operation: Engine::run (untraced) or its decomposition (traced) on
  // a fresh store (cold) or the reference store (warm). Every operation
  // must reproduce the reference rows and hit (warm) or miss (cold) every
  // artifact lookup.
  const auto run_op = [&](bool traced, LayerTimes& layers) {
    const std::string store = smt ? ref_store : op_store;
    if (!smt) reset_dir(op_store);
    reset_process_caches();
    obs::set_enabled(traced);
    const Snapshot before = Snapshot::take();
    const double t0 = now_s();
    core::Engine engine{core::ArtifactStore(store)};
    const std::vector<core::Table1Row> rows =
        traced ? run_decomposed(engine, scenario, layers)
               : engine.run(scenario);
    const double dt = now_s() - t0;
    const Snapshot delta = Snapshot::take().minus(before);
    obs::set_enabled(false);
    if (traced) {
      layers.delta.accumulate(delta);
      layers.lane_wall += dt;
      layers.traced_op_s.push_back(dt);
    } else {
      layers.untraced_op_s.push_back(dt);
    }
    const double wrong_cache = delta.get(smt ? "counter.engine.artifact.miss"
                                             : "counter.engine.artifact.hit");
    const bool ok = same_rows(rows, reference) && wrong_cache == 0.0;
    result.attempted += 1;
    if (!ok) result.failed += 1;
    return dt;
  };

  LayerTimes layers;
  std::vector<double> op_s;
  const double deadline = now_s() + opt.seconds;
  do {
    op_s.push_back(run_op(/*traced=*/false, layers));
    if (opt.trace) run_op(/*traced=*/true, layers);
  } while (now_s() < deadline);
  result.gate("ops_match_reference", result.failed == 0);

  // ---- gates on the finished run ----
  {
    core::Engine engine{core::ArtifactStore(ref_store)};
    result.gate("warm_matches_cold", same_rows(engine.run(fast), reference));
  }
  const std::string hash = table_hash(reference);
  result.notes["table1_hash"] = hash;
  if (!opt.expect_table.empty()) {
    result.gate("pinned_table", hash == opt.expect_table);
  }
  result.notes["ops"] = std::to_string(op_s.size());
  result.notes["setup_reps"] = std::to_string(setup_s.size());

  if (opt.trace) {
    add_layer_metrics(layers, result);
    return;
  }
  result.add("setup_s", median(setup_s), "s");
  add_latency_metrics(op_s, result);
  result.notes["windows_per_s"] =
      std::to_string(static_cast<double>(windows_per_op) / mean(op_s));
  result.add("max_rss_mb", max_rss_mb(), "MB");
}

}  // namespace fmnet::bench
