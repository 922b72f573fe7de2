// The staged execution engine: runs a Scenario through the pipeline DAG
//
//   simulate → prepare → train → (impute → correct → evaluate)
//
// with every expensive stage routed through the content-addressed artifact
// store. Stage keys chain: the campaign key hashes the canonical campaign
// config, the dataset key hashes campaign + windowing, and each method's
// checkpoint key hashes dataset + model + training + method name — so any
// upstream config change invalidates exactly the downstream artifacts.
//
// With FMNET_ARTIFACT_DIR set, a warm re-run of the same scenario loads
// the campaign, the prepared dataset and every learned method's checkpoint
// from disk — skipping simulation and training entirely (observable as
// engine.artifact.hit counters, zero sim.shards / train.epochs, and the
// absence of the inner "simulate"/"train" spans) — and produces the exact
// evaluation tables of the cold run, because artifacts round-trip
// bit-exactly and imputation is deterministic.
//
// Stages wrap themselves in "engine.<stage>" spans, so stage timing is
// visible in exported metrics on both cold and warm paths.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "core/scenario.h"
#include "impute/registry.h"
#include "util/thread_pool.h"

namespace fmnet::core {

/// One switch's evaluation in a fabric run (Engine::run_fabric), in
/// switch-index order — leaves first, then spines.
struct FabricSwitchResult {
  std::string name;
  std::vector<Table1Row> rows;
};

class Engine {
 public:
  /// `store` defaults to the FMNET_ARTIFACT_DIR-rooted store (disabled
  /// when unset); `pool` is forwarded to every stage (null = global pool)
  /// and must outlive the engine.
  explicit Engine(ArtifactStore store = ArtifactStore::from_env(),
                  util::ThreadPool* pool = nullptr);

  /// simulate: cached campaign, or run_campaign on a miss.
  Campaign campaign(const CampaignConfig& config);

  /// prepare: cached dataset, or prepare_data(campaign, ...) on a miss.
  PreparedData prepare(const Scenario& s, const Campaign& campaign);

  /// train: builds `method` from the registry and fits it on the training
  /// split. Every learned method checkpoints through the store, so a warm
  /// run restores its weights instead of training.
  impute::BuiltImputer fit_method(const Scenario& s,
                                  const std::string& method,
                                  const PreparedData& data);

  /// Receives one method's imputations of the test split: `method` is its
  /// scenario name, `imputer` the method as the registry builds it (its
  /// name() is the Table-1 column), outputs[i] its series for test example
  /// i in packets.
  using MethodScorer = std::function<void(
      const std::string& method, const impute::Imputer& imputer,
      const std::vector<std::vector<double>>& outputs)>;

  /// The method loop behind run, run_fabric_switches and the robustness
  /// sweep. Walks s.methods in order and fits each base once (fit_method);
  /// forwards each base once over data.split.test with one impute_batch;
  /// scores "x" from those outputs and "x+cem" from
  /// KnowledgeAugmentedImputer::repair_batch of them — the outputs and CEM
  /// counters evaluating each method's own imputer would give. Calls
  /// `score` once per method, in order, and releases a base (model and
  /// outputs) after the last method that uses it.
  void impute_methods(const Scenario& s, const PreparedData& data,
                      const MethodScorer& score);

  /// The full staged DAG: one Table-1 row per scenario method, in order.
  std::vector<Table1Row> run(const Scenario& s);

  // ---- fabric path (s.fabric.enabled()) -----------------------------------

  /// Per-switch campaigns of the coupled fabric simulation, cached
  /// individually (kind "fabric-gt"). The simulation is coupled, so a warm
  /// run loads all switches or re-simulates the whole fabric: with
  /// unchanged fabric/campaign config every switch hits (the keys ignore
  /// faults entirely), and only genuinely missing/corrupt entries are
  /// rewritten.
  std::vector<Campaign> fabric_campaigns(const Scenario& s);

  /// The per-switch phase: prepare → train → evaluate for every switch,
  /// sharded over the pool as one task graph (training inside each task
  /// fans out only to idle lanes — the nesting-safe pool contract).
  /// Datasets and checkpoints are cached per switch, so a warm run
  /// recomputes only switches whose per-switch config hash changed.
  /// Exposed separately from run_fabric so benches can lane-sweep it over
  /// precomputed campaigns.
  std::vector<FabricSwitchResult> run_fabric_switches(
      const Scenario& s, const std::vector<Campaign>& campaigns);

  /// The fabric DAG end to end: fabric_campaigns + run_fabric_switches.
  std::vector<FabricSwitchResult> run_fabric(const Scenario& s);

  const ArtifactStore& store() const { return store_; }

  /// The pool every stage runs on (null = global pool), exposed so
  /// engine-driven tooling (e.g. the robustness sweep) shares it.
  util::ThreadPool* pool() const { return pool_; }

  /// Stage cache keys (32 hex digits), exposed for tests and tooling.
  static std::string campaign_key(const CampaignConfig& config);
  static std::string dataset_key(const Scenario& s);
  static std::string checkpoint_key(const Scenario& s,
                                    const std::string& method);

  /// The effective single-switch scenario of fabric switch `index`: the
  /// fabric scenario with faults scoped to this switch (per-switch derived
  /// fault seed, or disabled when fabric.faults-switch excludes it) and a
  /// per-switch derived train seed. Pure function of (s, index) — the
  /// basis of the per-switch cache keys below.
  static Scenario fabric_switch_scenario(const Scenario& s,
                                         std::int64_t index);

  /// Per-switch fabric cache keys. The campaign key hashes campaign +
  /// fabric topology + switch name (faults never touch ground truth); the
  /// dataset key additionally hashes windowing + this switch's effective
  /// faults; the checkpoint key chains the per-switch dataset with
  /// model/train config and the base method.
  static std::string fabric_campaign_key(const Scenario& s,
                                         std::int64_t index);
  static std::string fabric_dataset_key(const Scenario& s,
                                        std::int64_t index);
  static std::string fabric_checkpoint_key(const Scenario& s,
                                           std::int64_t index,
                                           const std::string& method);

 private:
  PreparedData prepare_with_key(const Scenario& s, const Campaign& campaign,
                                const std::string& key);
  impute::BuiltImputer fit_method_with_key(const Scenario& s,
                                           const std::string& method,
                                           const PreparedData& data,
                                           const std::string& key);
  /// impute_methods with base checkpoints keyed by `key_of(base)`.
  void impute_methods_with_keys(
      const Scenario& s, const PreparedData& data,
      const std::function<std::string(const std::string&)>& key_of,
      const MethodScorer& score);

  ArtifactStore store_;
  util::ThreadPool* pool_;
};

}  // namespace fmnet::core
