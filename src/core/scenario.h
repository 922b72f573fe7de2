// Declarative scenario descriptions: the paper's evaluation grid as data.
//
// A Scenario bundles everything one end-to-end run needs — campaign
// (simulation), dataset windowing, model/training hyperparameters, CEM
// engine, and the list of imputation methods to evaluate — so binaries
// select behaviour by loading a small key-value config file (or applying
// CLI flags) instead of hard-coding CampaignConfig/TrainConfig plumbing.
//
// The same canonical serialisation that makes scenarios printable also
// makes them hashable: core/engine.h keys its content-addressed artifact
// cache on canonical_*() strings, so two binaries that describe the same
// scenario share the simulated campaign, the prepared dataset, and the
// trained checkpoints on disk.
//
// File format (INI-style, parsed by load_scenario_file):
//
//   # comment
//   name = paper-table1
//   [campaign]
//   seed = 42
//   ms = 10000
//   [train]
//   epochs = 30
//   methods = iterative, transformer, transformer+kal, transformer+kal+cem
//
// A `[section]` header prefixes the keys that follow ("seed" becomes
// "campaign.seed"); fully-qualified `section.key = value` lines work with
// or without a header. Unknown keys are hard errors — a typo must never
// silently fall back to a default.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fabric/fabric.h"
#include "faults/faults.h"
#include "impute/cem.h"
#include "impute/networks.h"
#include "impute/registry.h"
#include "impute/training.h"
#include "nn/transformer.h"
#include "serve/config.h"
#include "tasks/netcalc.h"

namespace fmnet::core {

/// One declarative end-to-end scenario (campaign + dataset + model + train
/// + CEM + methods). Defaults mirror the paper's setup.
struct Scenario {
  std::string name = "scenario";
  CampaignConfig campaign;
  /// Dataset windowing: fine steps per example window / per coarse interval.
  std::size_t window_ms = 300;
  std::size_t factor = 50;
  nn::TransformerConfig model;
  impute::TrainConfig train;
  impute::CemConfig cem;
  /// Burst threshold as a fraction of the shared buffer (Table-1 tasks).
  double burst_threshold_fraction = 0.08;
  /// Imputation methods to evaluate, by registry name (impute/registry.h).
  std::vector<std::string> methods = {"transformer+kal+cem"};
  /// Telemetry fault injection between simulate and prepare (faults/faults.h).
  /// All-zero by default: the clean pipeline and its cache keys are
  /// byte-identical to a scenario with no faults.* keys at all.
  faults::FaultConfig faults;
  /// Leaf–spine fabric topology (fabric/fabric.h). Disabled by default
  /// (leaves == spines == 0): the scenario runs the classic single-switch
  /// pipeline, and — like faults — contributes nothing to cache keys.
  /// When enabled, campaign.ports is ignored (port counts come from the
  /// topology) and the engine takes the per-switch sharded path.
  fabric::FabricConfig fabric;
  /// Long-running serving mode (serve/config.h). Disabled by default
  /// (sessions == 0). serve.* keys feed NO artifact cache keys: serving
  /// replays an already-simulated/trained scenario, so tweaking server
  /// knobs must keep hitting the batch pipeline's caches.
  serve::ServeConfig serve;
  /// Autoencoder architecture (impute.autoencoder.* keys). `window` is not
  /// a key — the engine sets it from window_ms. The keys join checkpoint
  /// cache material only for autoencoder-family methods, so editing them
  /// never invalidates transformer checkpoints (see canonical_training).
  impute::AutoencoderConfig autoencoder;
  /// C4 network-calculus arrival-curve envelope (metrics.c4.* keys). Pure
  /// evaluation input — like serve.*, it feeds NO artifact cache keys.
  tasks::C4Config c4;

  Scenario();
};

/// Applies one `key = value` option (e.g. "campaign.seed", "42"). Throws
/// CheckError on unknown keys or unparsable values.
void apply_scenario_option(Scenario& s, const std::string& key,
                           const std::string& value);

/// Parses an INI-style scenario file (format in the file comment). Throws
/// CheckError on I/O failure or malformed/unknown entries.
Scenario load_scenario_file(const std::string& path);

/// Parses scenario text from a stream; `origin` labels error messages
/// (a path or e.g. "<string>"). Throws CheckError on malformed/unknown
/// entries — never crashes on arbitrary input (fuzz-tested).
Scenario parse_scenario(std::istream& in, const std::string& origin);

/// Convenience wrapper over parse_scenario for in-memory text.
Scenario parse_scenario_string(const std::string& text);

/// Every option key apply_scenario_option accepts, in canonical order.
const std::vector<std::string>& scenario_option_keys();

/// Canonical `key = value` serialisation of the whole scenario: every field
/// in fixed order, numeric formatting stable across runs. Parsing it back
/// reproduces the scenario exactly.
std::string canonical_scenario(const Scenario& s);

/// The registry's construction parameters for `s`: its model, training,
/// CEM and autoencoder slices, the autoencoder window set to the dataset
/// window, and `pool` (null = global pool) for every method's fan-out.
impute::MethodParams method_params(const Scenario& s,
                                   util::ThreadPool* pool = nullptr);

/// Canonical serialisations of the per-stage config slices, used by the
/// engine as cache-key material. Each stage string covers exactly the
/// fields that influence that stage's output:
///   campaign  — the full CampaignConfig (shard_ms included: shards are
///               seeded per-index, so sharding changes the ground truth);
///   dataset   — campaign + windowing + active fault injection;
///   training  — dataset + model + train + method name.
std::string canonical_campaign(const CampaignConfig& c);
std::string canonical_dataset(const Scenario& s);
std::string canonical_training(const Scenario& s, const std::string& method);

/// Canonical faults.* block — empty when fault injection is disabled, so
/// clean scenarios hash exactly as they did before faults existed.
std::string canonical_faults(const Scenario& s);

/// Canonical fabric topology block — empty when the fabric is disabled
/// (single-switch scenarios hash exactly as before the fabric existed).
/// Deliberately excludes fabric.faults-switch: fault scoping affects which
/// switches' *datasets* carry a faults block (see Engine fabric keys),
/// never the coupled ground truth, so editing it must not invalidate
/// per-switch campaigns or the datasets of unaffected switches.
std::string canonical_fabric(const Scenario& s);

}  // namespace fmnet::core
