// Registry-wide imputer conformance suite: one parametrized body run over
// every registered base method, pinning the formal contract an Imputer
// must satisfy to be a pipeline citizen:
//
//   * training is bit-identical at 1 vs 8 pool lanes, and on 8 lanes each
//     batch's micro-shards are handed to the pool together;
//   * impute_batch equals the per-window impute loop bit-for-bit, also
//     lane-parallel on 8 lanes against the 1-lane loop, with and without
//     the +cem wrapper (whose counters must match too), and every learned
//     method forwards a batch's windows exactly once;
//   * serving (a multi-session serve::ServeCore) publishes, per session,
//     exactly the newest interval of the offline imputation of that
//     session's trailing window (output_from cleared), which is what the
//     online example's own imputation returns;
//   * every learned method round-trips through nn/serialize exactly, and
//     a warm engine run reloads it instead of training;
//   * C1–C3 hold after CEM correction;
//   * fault masks (window_max_valid) exempt C1 during repair and checking.
//
// A new imputer registered in impute::Registry gets this contract for
// free — the suite enumerates Registry::known_methods() at runtime.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "impute/knowledge_imputer.h"
#include "impute/registry.h"
#include "impute/window_buffer.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "telemetry/dataset.h"
#include "test_helpers.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace fmnet {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Shared fixtures: one tiny-but-real dataset and one fitted imputer per
// (method, lane count), trained lazily and cached across test bodies so the
// whole suite trains each method at most twice.
// ---------------------------------------------------------------------------

/// 100-step windows (2 coarse intervals) from a small deterministic
/// campaign — large enough that every learned family actually trains.
const telemetry::DatasetSplit& split() {
  static const telemetry::DatasetSplit kSplit = [] {
    const auto campaign = fmnet::testing::run_small_campaign(91, 800);
    const auto gt = telemetry::trim_to_multiple(campaign.gt, 100);
    const auto ct = telemetry::sample_telemetry(gt, 50);
    telemetry::DatasetConfig cfg;
    cfg.window_ms = 100;
    cfg.factor = 50;
    cfg.qlen_scale = 200.0;
    cfg.count_scale = 500.0;
    return telemetry::split_examples(
        telemetry::build_examples(gt, ct, cfg, 2));
  }();
  return kSplit;
}

util::ThreadPool& pool_with(std::size_t lanes) {
  static util::ThreadPool one(1);
  static util::ThreadPool eight(8);
  return lanes == 1 ? one : eight;
}

impute::MethodParams tiny_params(util::ThreadPool* pool) {
  impute::MethodParams p;
  p.model.input_channels =
      static_cast<std::int64_t>(telemetry::kNumInputChannels);
  p.model.d_model = 8;
  p.model.num_heads = 2;
  p.model.num_layers = 1;
  p.model.d_ff = 16;
  p.model.max_seq_len = 128;
  p.train.epochs = 2;
  p.train.batch_size = 4;
  p.train.seed = 7;
  p.autoencoder.window = 100;
  p.autoencoder.hidden = 16;
  p.autoencoder.latent = 8;
  p.autoencoder.penalty_weight = 0.5f;
  p.pool = pool;
  return p;
}

/// The analytical bases: nothing to learn, so no model to checkpoint.
bool analytical(const std::string& base) {
  return base == "linear" || base == "iterative" || base == "fm";
}

using FitKey = std::pair<std::string, std::size_t>;

/// Tasks per parallel region while fitting (base, lanes): the micro-shards
/// each training batch handed to the pool at once (0 = pool unused).
std::map<FitKey, double>& fit_fanout() {
  static std::map<FitKey, double> fanout;
  return fanout;
}

/// Builds and fits `base` on `lanes` pool lanes, memoised per (base, lanes).
const impute::BuiltImputer& fitted(const std::string& base,
                                   std::size_t lanes) {
  static std::map<FitKey, impute::BuiltImputer> cache;
  const FitKey key{base, lanes};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  util::ThreadPool& pool = pool_with(lanes);
  impute::BuiltImputer built =
      impute::Registry::build(base, tiny_params(&pool));
  pool.reset_lane_stats();
  built.imputer->fit(split().train, &pool);
  // Lane 0 (the caller) takes part in every region, inline or fanned out,
  // and every executed index is counted before its region returns.
  const auto stats = pool.lane_stats();
  std::int64_t tasks = 0;
  for (const auto& lane : stats) tasks += lane.tasks;
  fit_fanout()[key] = stats[0].regions == 0
                          ? 0.0
                          : static_cast<double>(tasks) /
                                static_cast<double>(stats[0].regions);
  return cache.emplace(key, std::move(built)).first->second;
}

std::vector<std::string> base_methods() {
  std::vector<std::string> bases;
  for (const auto& m : impute::Registry::known_methods()) {
    if (impute::Registry::base_method(m) == m) bases.push_back(m);
  }
  return bases;
}

/// "x" stays as is; the fm method is already a pure constraint witness, so
/// wrapping it in CEM again would only re-run the same solver.
std::shared_ptr<impute::Imputer> cem_corrected(const std::string& base) {
  const impute::BuiltImputer& built = fitted(base, 1);
  if (base == "fm") return built.imputer;
  return impute::Registry::with_cem(built, tiny_params(&pool_with(1)))
      .imputer;
}

std::vector<double> normalised(const std::vector<double>& imputed,
                               const telemetry::ImputationExample& ex) {
  std::vector<double> out(imputed.size());
  for (std::size_t t = 0; t < imputed.size(); ++t) {
    out[t] = imputed[t] / ex.qlen_scale;
  }
  return out;
}

class ImputerConformance : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredMethods, ImputerConformance,
    ::testing::ValuesIn(base_methods()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string name = param.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// The contract.
// ---------------------------------------------------------------------------

TEST_P(ImputerConformance, TrainDeterministicAcrossLanes) {
  const impute::BuiltImputer& one = fitted(GetParam(), 1);
  const impute::BuiltImputer& eight = fitted(GetParam(), 8);
  // On 8 lanes every batch hands its micro-shards of one example
  // (train.micro-batch = 1, batch 4) to the pool as one region, which idle
  // lanes share; the autoencoder keeps one shard per batch and trains
  // inline. (Which lanes win the shards is up to the scheduler, so the
  // handed-out fan-out is what is pinned.)
  if (!analytical(GetParam()) && GetParam() != "autoencoder") {
    EXPECT_GE(fit_fanout().at({GetParam(), 8}), 2.0)
        << GetParam() << " did not fan its training out over the pool";
  }
  const auto& test = split().test;
  ASSERT_GE(test.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // Exact vector<double> equality: lane count must never leak into a
    // single trained weight or imputed value.
    EXPECT_EQ(one.imputer->impute(test[i]), eight.imputer->impute(test[i]))
        << "method " << GetParam() << ", test window " << i;
  }
}

TEST_P(ImputerConformance, BatchMatchesPerWindowLoop) {
  const impute::BuiltImputer& built = fitted(GetParam(), 1);
  const auto& test = split().test;
  ASSERT_GE(test.size(), 4u);
  const std::vector<telemetry::ImputationExample> batch(test.begin(),
                                                        test.begin() + 4);
  const auto batched = built.imputer->impute_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batched[i], built.imputer->impute(batch[i]))
        << "method " << GetParam() << ", batch entry " << i;
  }
}

TEST_P(ImputerConformance, ParallelBatchMatchesLoopAcrossLanes) {
  // The whole test split (32 windows: two inference shards) through the
  // lane-parallel batch path on 8 lanes — sharded forwards, concurrent CEM
  // repair — against the plain per-window loop on 1 lane.
  const std::string& base = GetParam();
  const auto& test = split().test;
  std::vector<std::shared_ptr<impute::Imputer>> parallel = {
      fitted(base, 8).imputer};
  std::vector<std::shared_ptr<impute::Imputer>> serial = {
      fitted(base, 1).imputer};
  if (base != "fm") {  // fm has no +cem form (see cem_corrected)
    parallel.push_back(
        impute::Registry::with_cem(fitted(base, 8), tiny_params(&pool_with(8)))
            .imputer);
    serial.push_back(
        impute::Registry::with_cem(fitted(base, 1), tiny_params(&pool_with(1)))
            .imputer);
  }
  for (std::size_t k = 0; k < parallel.size(); ++k) {
    const auto batched = parallel[k]->impute_batch(test);
    ASSERT_EQ(batched.size(), test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
      EXPECT_EQ(batched[i], serial[k]->impute(test[i]))
          << parallel[k]->name() << ", test window " << i;
    }
  }
  if (parallel.size() < 2) return;
  const auto& par =
      dynamic_cast<const impute::KnowledgeAugmentedImputer&>(*parallel[1]);
  const auto& loop =
      dynamic_cast<const impute::KnowledgeAugmentedImputer&>(*serial[1]);
  EXPECT_EQ(par.cem_calls(), static_cast<std::int64_t>(test.size()));
  EXPECT_EQ(par.cem_calls(), loop.cem_calls());
  EXPECT_EQ(par.infeasible_windows(), loop.infeasible_windows());
}

TEST_P(ImputerConformance, BatchForwardsEveryWindowOnce) {
  // Every learned method imputes a batch through one sharded model forward,
  // which counts each window once; the analytical methods run no model.
  const std::shared_ptr<impute::Imputer>& imputer =
      fitted(GetParam(), 8).imputer;
  const auto& test = split().test;
  const obs::Counter& forwarded =
      obs::Registry::global().counter("impute.forward.windows");
  const std::int64_t before = forwarded.value();
  (void)imputer->impute_batch(test);
  EXPECT_EQ(forwarded.value() - before,
            analytical(GetParam()) ? 0
                                   : static_cast<std::int64_t>(test.size()))
      << GetParam();
}

TEST_P(ImputerConformance, StreamingMatchesOffline) {
  // Serve three sessions (groups of two, all three in one forward, which
  // mixes sessions) and mirror each session's intervals into a shadow
  // WindowBuffer. Its example asks for the newest interval alone
  // (output_from = 50), and the imputer returns exactly those 50 steps.
  // Every raw publication must be exactly the tail slice of imputing the
  // same window offline, i.e. with output_from cleared: a method that
  // computes the newest interval differently from the whole window fails
  // here.
  const std::shared_ptr<impute::Imputer> base = fitted(GetParam(), 1).imputer;
  constexpr std::int64_t kSessions = 3;
  serve::ServeConfig cfg;
  cfg.sessions = kSessions;
  cfg.max_batch = 2;
  cfg.repair = false;
  util::VirtualClock clock;
  serve::ServeCore core(cfg, base, 2, 50, 200.0, 500.0, impute::CemConfig{},
                        &clock, &pool_with(1));
  std::vector<impute::WindowBuffer> shadow(
      kSessions, impute::WindowBuffer(2, 50, 200.0, 500.0));
  Rng rng(17);
  std::size_t published = 0;
  for (std::int64_t tick = 0; tick < 6; ++tick) {
    std::vector<impute::CoarseIntervalUpdate> updates;
    for (std::int64_t s = 0; s < kSessions; ++s) {
      const double mx = static_cast<double>(rng.uniform_int(0, 60));
      const double sample = static_cast<double>(
          rng.uniform_int(0, static_cast<std::int64_t>(mx)));
      updates.push_back({sample, mx, 20.0, 0.0});
      shadow[static_cast<std::size_t>(s)].push(updates.back());
    }
    std::vector<serve::PublishedWindow> out;
    core.tick(updates, out);
    for (const serve::PublishedWindow& p : out) {
      ASSERT_EQ(p.kind, serve::WindowKind::kRaw);
      ASSERT_EQ(p.tick, tick);
      telemetry::ImputationExample ex =
          shadow[static_cast<std::size_t>(p.session)].make_example();
      ASSERT_EQ(ex.output_from, 50u);
      EXPECT_EQ(base->impute(ex), p.fine) << GetParam();
      ex.output_from = 0;
      const auto offline = base->impute(ex);
      ASSERT_EQ(offline.size(), 100u);
      ASSERT_EQ(p.fine.size(), 50u);
      for (std::size_t t = 0; t < 50; ++t) {
        EXPECT_EQ(p.fine[t], offline[50 + t])
            << "method " << GetParam() << ", session " << p.session
            << ", tick " << tick << ", step " << t;
      }
      ++published;
    }
    clock.advance(0.05);
  }
  // Every session publishes once per tick from its second interval on.
  EXPECT_EQ(published, 5u * kSessions);
}

TEST_P(ImputerConformance, CheckpointRoundTripBitExact) {
  const impute::BuiltImputer& built = fitted(GetParam(), 1);
  if (analytical(GetParam())) {
    EXPECT_EQ(built.trainable, nullptr);
    GTEST_SKIP() << GetParam() << " has no checkpointable model";
  }
  ASSERT_NE(built.trainable, nullptr) << GetParam() << " is not checkpointable";
  std::stringstream buf;
  nn::save_parameters(built.trainable->model(), buf);
  // A freshly built (never fitted) instance must accept the weights and
  // impute identically — this is exactly the engine's warm-cache path.
  impute::BuiltImputer fresh =
      impute::Registry::build(GetParam(), tiny_params(&pool_with(1)));
  ASSERT_NE(fresh.trainable, nullptr);
  nn::load_parameters(fresh.trainable->model(), buf);
  const auto& test = split().test;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(built.imputer->impute(test[i]), fresh.imputer->impute(test[i]))
        << "method " << GetParam() << ", test window " << i;
  }
}

TEST_P(ImputerConformance, CemEnforcesC1UpperBound) {
  // The C1 upper bound, and with it C2 and C3, after CEM correction.
  const auto corrected = cem_corrected(GetParam());
  const auto& test = split().test;
  ASSERT_GE(test.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto imputed = corrected->impute(test[i]);
    const auto v = fmnet::testing::checked(normalised(imputed, test[i]),
                                           test[i].constraints);
    EXPECT_LE(v.c1.violation, 1e-5)
        << "method " << GetParam() << ", test window " << i;
    EXPECT_LE(v.c2.violation, 1e-5)
        << "method " << GetParam() << ", test window " << i;
    EXPECT_LE(v.c3.violation, 1e-5)
        << "method " << GetParam() << ", test window " << i;
  }
}

TEST_P(ImputerConformance, FaultMaskExemptsC1DuringRepair) {
  const auto corrected = cem_corrected(GetParam());
  telemetry::ImputationExample ex = split().test.front();
  const std::size_t intervals = ex.constraints.window_max.size();
  ASSERT_GE(intervals, 2u);
  // Simulate a lost LANZ report: interval 0's max is a stale zero and its
  // validity bit is cleared. A mask-ignoring CEM would clamp the whole
  // interval to zero (conflicting with any periodic sample there); a
  // mask-ignoring checker would report the repaired series as violating.
  ex.constraints.window_max_valid.assign(intervals, 1);
  ex.constraints.window_max_valid[0] = 0;
  ex.constraints.window_max[0] = 0.0f;
  const auto imputed = corrected->impute(ex);
  const auto v =
      fmnet::testing::checked(normalised(imputed, ex), ex.constraints);
  EXPECT_LE(v.c1.violation, 1e-5) << "method " << GetParam();
  EXPECT_LE(v.c2.violation, 1e-5) << "method " << GetParam();
  EXPECT_LE(v.c3.violation, 1e-5) << "method " << GetParam();
}

// ---------------------------------------------------------------------------
// Registry dispatch end to end: a scenario file through Engine::run —
// the coverage gap where extensions_test exercised imputers directly but
// never through the engine's registry-driven path.
// ---------------------------------------------------------------------------

const char* kE2eScenario = R"(name = conformance-e2e
[campaign]
ports = 2
buffer = 200
slots-per-ms = 10
ms = 400
seed = 5
shard-ms = 100
[data]
window-ms = 100
factor = 50
[model]
d-model = 8
heads = 2
layers = 1
d-ff = 16
max-seq-len = 128
[train]
epochs = 1
batch = 4
seed = 7
impute.autoencoder.hidden = 16
impute.autoencoder.latent = 8
impute.autoencoder.penalty-weight = 0.5
metrics.c4.arrival-burst = 120
metrics.c4.arrival-rate = 4
metrics.c4.latency-ms = 2
methods = linear, autoencoder, autoencoder+cem, transformer+kal
)";

TEST(RegistryDispatch, EngineRunsScenarioFileEndToEnd) {
  const core::Scenario s = core::parse_scenario_string(kE2eScenario);
  core::Engine engine{core::ArtifactStore()};
  const auto rows = engine.run(s);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].method, "LinearInterp");
  EXPECT_EQ(rows[1].method, "Autoencoder");
  EXPECT_EQ(rows[2].method, "Autoencoder+CEM");
  for (const auto& r : rows) {
    EXPECT_TRUE(std::isfinite(r.c4_backlog)) << r.method;
    EXPECT_GE(r.c4_backlog, 0.0) << r.method;
  }
  // The CEM-corrected row must be C1-feasible even when dispatched through
  // the engine rather than constructed directly.
  EXPECT_LE(rows[2].max_constraint, 1e-6);
}

TEST(RegistryDispatch, AutoencoderKeysScopeToAutoencoderCheckpoints) {
  const core::Scenario s = core::parse_scenario_string(kE2eScenario);
  core::Scenario wider = s;
  wider.autoencoder.hidden = 32;
  // impute.autoencoder.* keys are checkpoint material for the autoencoder
  // family only: widening the autoencoder must not invalidate transformer
  // checkpoints, and a method shares its checkpoint with its +cem form.
  EXPECT_NE(core::Engine::checkpoint_key(s, "autoencoder"),
            core::Engine::checkpoint_key(wider, "autoencoder"));
  EXPECT_EQ(core::Engine::checkpoint_key(s, "transformer+kal"),
            core::Engine::checkpoint_key(wider, "transformer+kal"));
  EXPECT_EQ(core::Engine::checkpoint_key(s, "autoencoder"),
            core::Engine::checkpoint_key(s, "autoencoder+cem"));
  // metrics.c4.* keys are evaluation-only: no artifact key may move.
  core::Scenario envelope = s;
  envelope.c4.arrival_burst = 999.0;
  EXPECT_EQ(core::Engine::dataset_key(s), core::Engine::dataset_key(envelope));
  EXPECT_EQ(core::Engine::checkpoint_key(s, "autoencoder"),
            core::Engine::checkpoint_key(envelope, "autoencoder"));
}

// A cold run of `base` trains exactly the scenario's epochs; a warm run
// loads campaign, dataset and checkpoint, trains nothing and prints the cold
// run's table.
void expect_warm_reload(core::Scenario s, const std::string& base,
                        const fs::path& dir) {
  SCOPED_TRACE(base);
  s.methods = {base};
  auto& reg = obs::Registry::global();
  const obs::Counter& epochs = reg.counter("train.epochs");
  const obs::Counter& hits = reg.counter("engine.artifact.hit");
  const obs::Counter& misses = reg.counter("engine.artifact.miss");

  const std::int64_t cold_epochs = epochs.value();
  core::Engine cold{core::ArtifactStore(dir.string())};
  const auto cold_rows = cold.run(s);
  EXPECT_EQ(epochs.value() - cold_epochs, s.train.epochs);

  const std::int64_t hits_before = hits.value();
  const std::int64_t misses_before = misses.value();
  const std::int64_t warm_epochs = epochs.value();
  core::Engine warm{core::ArtifactStore(dir.string())};
  const auto warm_rows = warm.run(s);
  EXPECT_EQ(hits.value() - hits_before, 3);
  EXPECT_EQ(misses.value() - misses_before, 0);
  EXPECT_EQ(epochs.value() - warm_epochs, 0);

  // Warm results are the cold results, bit for bit.
  std::ostringstream cold_os;
  std::ostringstream warm_os;
  core::print_table1(cold_rows, cold_os);
  core::print_table1(warm_rows, warm_os);
  EXPECT_EQ(cold_os.str(), warm_os.str());
}

TEST(RegistryDispatch, AutoencoderCheckpointsReloadWarm) {
  const fs::path dir =
      fs::temp_directory_path() / "fmnet_conformance_ae_store";
  fs::remove_all(dir);
  core::Scenario s = core::parse_scenario_string(kE2eScenario);
  s.train.epochs = 2;
  expect_warm_reload(s, "autoencoder", dir);
  fs::remove_all(dir);
}

TEST(RegistryDispatch, LearnedCheckpointsReloadWarm) {
  // Every other learned base checkpoints through the engine the same way.
  const fs::path dir =
      fs::temp_directory_path() / "fmnet_conformance_learned_store";
  fs::remove_all(dir);
  core::Scenario s = core::parse_scenario_string(kE2eScenario);
  s.train.epochs = 2;
  for (const std::string& base : base_methods()) {
    if (analytical(base) || base == "autoencoder") continue;
    expect_warm_reload(s, base, dir);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fmnet
