#include "core/engine.h"

#include <fstream>
#include <map>
#include <optional>
#include <utility>

#include "fabric/fabric.h"
#include "impute/knowledge_imputer.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fmnet::core {

namespace {

// Artifact payload formats. Bump on any layout change: a stale artifact
// then fails to parse and the engine recomputes it (the store's checksum
// only guards byte integrity, not schema).
constexpr std::uint32_t kCampaignFormat = 1;
// Clean datasets keep format 1 so their cached payloads stay byte-identical
// to pre-fault builds; fault-degraded datasets (quality masks present) use
// the masked format, which additionally serialises per-example
// window_max_valid and the campaign-level quality masks.
constexpr std::uint32_t kDatasetFormat = 1;
constexpr std::uint32_t kDatasetFormatMasked = 2;

void write_series(util::BinWriter& w, const fmnet::TimeSeries& s) {
  w.pod(s.step_ms());
  w.vec(s.values());
}

fmnet::TimeSeries read_series(util::BinReader& r) {
  const double step_ms = r.pod<double>();
  return fmnet::TimeSeries(r.vec<double>(), step_ms);
}

void write_series_vec(util::BinWriter& w,
                      const std::vector<fmnet::TimeSeries>& v) {
  w.pod(static_cast<std::uint64_t>(v.size()));
  for (const auto& s : v) write_series(w, s);
}

std::vector<fmnet::TimeSeries> read_series_vec(util::BinReader& r) {
  const auto n = r.pod<std::uint64_t>();
  FMNET_CHECK_LE(n, 1ULL << 20);
  std::vector<fmnet::TimeSeries> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_series(r));
  return v;
}

void write_campaign(std::ostream& out, const Campaign& c) {
  util::BinWriter w(out);
  w.pod(kCampaignFormat);
  const auto& sw = c.switch_config;
  w.pod(sw.num_ports);
  w.pod(sw.queues_per_port);
  w.pod(sw.buffer_size);
  w.vec(sw.alpha);
  w.pod(static_cast<std::int32_t>(sw.scheduler));
  w.vec(sw.wrr_weights);
  w.pod(sw.slots_per_ms);
  w.pod(c.gt.slots_per_ms);
  write_series_vec(w, c.gt.queue_len);
  write_series_vec(w, c.gt.queue_len_max);
  write_series_vec(w, c.gt.port_sent);
  write_series_vec(w, c.gt.port_dropped);
  write_series_vec(w, c.gt.port_received);
}

Campaign read_campaign(std::istream& in) {
  util::BinReader r(in);
  FMNET_CHECK_EQ(r.pod<std::uint32_t>(), kCampaignFormat);
  Campaign c;
  auto& sw = c.switch_config;
  sw.num_ports = r.pod<std::int32_t>();
  sw.queues_per_port = r.pod<std::int32_t>();
  sw.buffer_size = r.pod<std::int64_t>();
  sw.alpha = r.vec<double>();
  sw.scheduler = static_cast<switchsim::SchedulerType>(r.pod<std::int32_t>());
  sw.wrr_weights = r.vec<std::int32_t>();
  sw.slots_per_ms = r.pod<std::int32_t>();
  c.gt.slots_per_ms = r.pod<std::int32_t>();
  c.gt.queue_len = read_series_vec(r);
  c.gt.queue_len_max = read_series_vec(r);
  c.gt.port_sent = read_series_vec(r);
  c.gt.port_dropped = read_series_vec(r);
  c.gt.port_received = read_series_vec(r);
  return c;
}

void write_example(util::BinWriter& w, const telemetry::ImputationExample& ex,
                   bool masked) {
  w.vec(ex.features);
  w.vec(ex.target);
  w.vec(ex.constraints.sample_idx);
  w.vec(ex.constraints.sample_val);
  w.vec(ex.constraints.window_max);
  w.vec(ex.constraints.port_sent);
  if (masked) w.vec(ex.constraints.window_max_valid);
  w.pod(ex.constraints.coarse_factor);
  w.pod(ex.constraints.ne_tanh_scale);
  w.pod(ex.queue);
  w.pod(ex.port);
  w.pod(static_cast<std::uint64_t>(ex.start_ms));
  w.pod(static_cast<std::uint64_t>(ex.window));
  w.pod(ex.qlen_scale);
  w.pod(ex.count_scale);
}

telemetry::ImputationExample read_example(util::BinReader& r, bool masked) {
  telemetry::ImputationExample ex;
  ex.features = r.vec<float>();
  ex.target = r.vec<float>();
  ex.constraints.sample_idx = r.vec<std::int64_t>();
  ex.constraints.sample_val = r.vec<float>();
  ex.constraints.window_max = r.vec<float>();
  ex.constraints.port_sent = r.vec<float>();
  if (masked) ex.constraints.window_max_valid = r.vec<std::uint8_t>();
  ex.constraints.coarse_factor = r.pod<std::int64_t>();
  ex.constraints.ne_tanh_scale = r.pod<float>();
  ex.queue = r.pod<std::int32_t>();
  ex.port = r.pod<std::int32_t>();
  ex.start_ms = static_cast<std::size_t>(r.pod<std::uint64_t>());
  ex.window = static_cast<std::size_t>(r.pod<std::uint64_t>());
  ex.qlen_scale = r.pod<double>();
  ex.count_scale = r.pod<double>();
  // Imputers, CEM and the checker index these vectors by window position,
  // so a record whose lengths disagree must fail to parse, not read out of
  // bounds later. The target check comes first: it bounds `window` by a
  // length actually read before any arithmetic on it.
  FMNET_CHECK(ex.target.size() == ex.window,
              "dataset example target does not match its window of " +
                  std::to_string(ex.window) + " steps");
  FMNET_CHECK(ex.features.size() == ex.window * telemetry::kNumInputChannels,
              "dataset example features do not match its window of " +
                  std::to_string(ex.window) + " steps");
  ex.constraints.check_shape(static_cast<std::int64_t>(ex.window));
  return ex;
}

void write_examples(util::BinWriter& w,
                    const std::vector<telemetry::ImputationExample>& v,
                    bool masked) {
  w.pod(static_cast<std::uint64_t>(v.size()));
  for (const auto& ex : v) write_example(w, ex, masked);
}

std::vector<telemetry::ImputationExample> read_examples(util::BinReader& r,
                                                        bool masked) {
  const auto n = r.pod<std::uint64_t>();
  FMNET_CHECK_LE(n, 1ULL << 24);
  std::vector<telemetry::ImputationExample> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_example(r, masked));
  return v;
}

void write_mask_vec(util::BinWriter& w,
                    const std::vector<std::vector<std::uint8_t>>& v) {
  w.pod(static_cast<std::uint64_t>(v.size()));
  for (const auto& m : v) w.vec(m);
}

std::vector<std::vector<std::uint8_t>> read_mask_vec(util::BinReader& r) {
  const auto n = r.pod<std::uint64_t>();
  FMNET_CHECK_LE(n, 1ULL << 20);
  std::vector<std::vector<std::uint8_t>> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.vec<std::uint8_t>());
  return v;
}

void write_prepared(std::ostream& out, const PreparedData& d) {
  util::BinWriter w(out);
  const bool masked = !d.quality.empty();
  w.pod(masked ? kDatasetFormatMasked : kDatasetFormat);
  w.pod(static_cast<std::uint64_t>(d.dataset_config.window_ms));
  w.pod(static_cast<std::uint64_t>(d.dataset_config.factor));
  w.pod(d.dataset_config.qlen_scale);
  w.pod(d.dataset_config.count_scale);
  w.pod(static_cast<std::uint64_t>(d.coarse.factor));
  write_series_vec(w, d.coarse.periodic_qlen);
  write_series_vec(w, d.coarse.max_qlen);
  write_series_vec(w, d.coarse.snmp_sent);
  write_series_vec(w, d.coarse.snmp_dropped);
  write_series_vec(w, d.coarse.snmp_received);
  write_examples(w, d.split.train, masked);
  write_examples(w, d.split.test, masked);
  if (masked) {
    write_mask_vec(w, d.quality.periodic_valid);
    write_mask_vec(w, d.quality.lanz_valid);
  }
}

PreparedData read_prepared(std::istream& in) {
  util::BinReader r(in);
  const auto format = r.pod<std::uint32_t>();
  FMNET_CHECK(format == kDatasetFormat || format == kDatasetFormatMasked,
              "unknown dataset payload format");
  const bool masked = format == kDatasetFormatMasked;
  PreparedData d;
  d.dataset_config.window_ms =
      static_cast<std::size_t>(r.pod<std::uint64_t>());
  d.dataset_config.factor = static_cast<std::size_t>(r.pod<std::uint64_t>());
  d.dataset_config.qlen_scale = r.pod<double>();
  d.dataset_config.count_scale = r.pod<double>();
  d.coarse.factor = static_cast<std::size_t>(r.pod<std::uint64_t>());
  d.coarse.periodic_qlen = read_series_vec(r);
  d.coarse.max_qlen = read_series_vec(r);
  d.coarse.snmp_sent = read_series_vec(r);
  d.coarse.snmp_dropped = read_series_vec(r);
  d.coarse.snmp_received = read_series_vec(r);
  d.split.train = read_examples(r, masked);
  d.split.test = read_examples(r, masked);
  if (masked) {
    d.quality.periodic_valid = read_mask_vec(r);
    d.quality.lanz_valid = read_mask_vec(r);
  }
  return d;
}

/// Parses a cached artifact with `reader`; a parse failure (schema drift,
/// a hash collision between formats) degrades to a miss rather than
/// aborting the run.
template <class T, class Reader>
std::optional<T> try_load(const std::string& path, Reader reader) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  try {
    return reader(in);
  } catch (const CheckError&) {
    return std::nullopt;
  }
}

}  // namespace

Engine::Engine(ArtifactStore store, util::ThreadPool* pool)
    : store_(std::move(store)), pool_(pool) {}

std::string Engine::campaign_key(const CampaignConfig& config) {
  return util::stable_key(canonical_campaign(config));
}

std::string Engine::dataset_key(const Scenario& s) {
  return util::stable_key(canonical_dataset(s));
}

std::string Engine::checkpoint_key(const Scenario& s,
                                   const std::string& method) {
  // Keyed on the base method: "transformer+kal" and "transformer+kal+cem"
  // train the same model, so they share one checkpoint.
  return util::stable_key(
      canonical_training(s, impute::Registry::base_method(method)));
}

Campaign Engine::campaign(const CampaignConfig& config) {
  obs::ScopedSpan span("engine.simulate");
  const std::string key = campaign_key(config);
  if (const auto path = store_.find("campaign", key)) {
    if (auto cached = try_load<Campaign>(
            *path, [](std::istream& in) { return read_campaign(in); })) {
      return std::move(*cached);
    }
  }
  Campaign c = run_campaign(config, pool_);
  store_.put("campaign", key,
             [&](std::ostream& out) { write_campaign(out, c); });
  return c;
}

PreparedData Engine::prepare(const Scenario& s, const Campaign& campaign) {
  return prepare_with_key(s, campaign, dataset_key(s));
}

PreparedData Engine::prepare_with_key(const Scenario& s,
                                      const Campaign& campaign,
                                      const std::string& key) {
  obs::ScopedSpan span("engine.prepare");
  if (const auto path = store_.find("dataset", key)) {
    if (auto cached = try_load<PreparedData>(
            *path, [](std::istream& in) { return read_prepared(in); })) {
      return std::move(*cached);
    }
  }
  PreparedData d = prepare_data(campaign, s.window_ms, s.factor, s.faults,
                                pool_);
  store_.put("dataset", key,
             [&](std::ostream& out) { write_prepared(out, d); });
  return d;
}

impute::BuiltImputer Engine::fit_method(const Scenario& s,
                                        const std::string& method,
                                        const PreparedData& data) {
  return fit_method_with_key(s, method, data, checkpoint_key(s, method));
}

impute::BuiltImputer Engine::fit_method_with_key(const Scenario& s,
                                                 const std::string& method,
                                                 const PreparedData& data,
                                                 const std::string& key) {
  obs::ScopedSpan span("engine.train");
  impute::BuiltImputer built =
      impute::Registry::build(method, method_params(s, pool_));

  // Every learned method checkpoints; the analytical ones have nothing to
  // store (find/put are no-ops on a disabled store).
  const bool learned = built.trainable != nullptr;
  if (learned) {
    if (const auto path = store_.find("checkpoint", key)) {
      std::ifstream in(*path, std::ios::binary);
      bool loaded = false;
      if (in.good()) {
        try {
          nn::load_parameters(built.trainable->model(), in);
          loaded = true;
        } catch (const CheckError&) {
          // Architecture drift under an unchanged key should be impossible
          // (the key hashes the model config). A rejected load leaves the
          // model untouched, so the retrain below starts from the weights
          // a cold run starts from.
        }
      }
      if (loaded) return built;
    }
  }
  built.imputer->fit(data.split.train, pool_);
  if (learned) {
    store_.put("checkpoint", key, [&](std::ostream& out) {
      nn::save_parameters(built.trainable->model(), out);
    });
  }
  return built;
}

void Engine::impute_methods(const Scenario& s, const PreparedData& data,
                            const MethodScorer& score) {
  impute_methods_with_keys(
      s, data,
      [&](const std::string& base) { return checkpoint_key(s, base); },
      score);
}

void Engine::impute_methods_with_keys(
    const Scenario& s, const PreparedData& data,
    const std::function<std::string(const std::string&)>& key_of,
    const MethodScorer& score) {
  const impute::MethodParams params = method_params(s, pool_);
  const std::vector<telemetry::ImputationExample>& test = data.split.test;

  // The last method of each base, after which its model and outputs go.
  std::map<std::string, std::size_t> last_use;
  for (std::size_t m = 0; m < s.methods.size(); ++m) {
    last_use[impute::Registry::base_method(s.methods[m])] = m;
  }

  // Each *base* is fitted and forwarded at most once: "x" and "x+cem"
  // share the fitted base and its outputs, with CEM repairing those.
  struct Base {
    impute::BuiltImputer built;
    std::optional<std::vector<std::vector<double>>> outputs;
  };
  std::map<std::string, Base> bases;
  for (std::size_t m = 0; m < s.methods.size(); ++m) {
    const std::string& method = s.methods[m];
    const std::string base = impute::Registry::base_method(method);
    auto it = bases.find(base);
    if (it == bases.end()) {
      it = bases
               .emplace(base, Base{fit_method_with_key(s, base, data,
                                                       key_of(base)),
                                   std::nullopt})
               .first;
    }
    Base& b = it->second;
    obs::ScopedSpan span("engine.evaluate");
    if (!b.outputs.has_value()) b.outputs = b.built.imputer->impute_batch(test);
    if (method == base) {
      score(method, *b.built.imputer, *b.outputs);
    } else {
      impute::KnowledgeAugmentedImputer cem(b.built.imputer, params.cem,
                                            params.pool);
      score(method, cem, cem.repair_batch(*b.outputs, test));
    }
    if (last_use[base] == m) bases.erase(it);
  }
}

std::vector<Table1Row> Engine::run(const Scenario& s) {
  const Campaign c = campaign(s.campaign);
  const PreparedData data = prepare(s, c);
  const Table1Evaluator evaluator(c, data, s.burst_threshold_fraction, s.c4);
  std::vector<Table1Row> rows;
  rows.reserve(s.methods.size());
  impute_methods(s, data,
                 [&](const std::string&, const impute::Imputer& imputer,
                     const std::vector<std::vector<double>>& outputs) {
                   rows.push_back(evaluator.score(imputer.name(), outputs));
                 });
  return rows;
}

Scenario Engine::fabric_switch_scenario(const Scenario& s,
                                        std::int64_t index) {
  FMNET_CHECK(s.fabric.enabled(), "scenario has no fabric topology");
  Scenario out = s;
  out.name = s.name + "/" + fabric::switch_name(s.fabric, index);
  const bool faulted =
      s.faults.enabled() &&
      (s.fabric.faults_switch < 0 || s.fabric.faults_switch == index);
  if (faulted) {
    // Each degraded switch gets its own fault stream, the same discipline
    // the fault injectors use internally for their sub-streams.
    out.faults.seed = derive_stream_seed(s.faults.seed,
                                         static_cast<std::uint64_t>(index));
  } else {
    out.faults = faults::FaultConfig{};
  }
  out.train.seed =
      derive_stream_seed(s.train.seed, static_cast<std::uint64_t>(index));
  return out;
}

namespace {

std::string fabric_switch_suffix(const Scenario& s, std::int64_t index) {
  return canonical_fabric(s) +
         "fabric.switch = " + fabric::switch_name(s.fabric, index) + "\n";
}

}  // namespace

std::string Engine::fabric_campaign_key(const Scenario& s,
                                        std::int64_t index) {
  // Faults never touch the coupled ground truth, so the per-switch
  // campaign hashes only campaign config + topology + switch identity.
  return util::stable_key(canonical_campaign(s.campaign) +
                          fabric_switch_suffix(s, index));
}

std::string Engine::fabric_dataset_key(const Scenario& s,
                                       std::int64_t index) {
  // canonical_dataset of the *effective* per-switch scenario: switches
  // outside the fault scope contribute no faults block at all, so editing
  // one switch's faults leaves every other switch's dataset key unchanged
  // — the cache-granularity contract.
  return util::stable_key(canonical_dataset(fabric_switch_scenario(s, index)) +
                          fabric_switch_suffix(s, index));
}

std::string Engine::fabric_checkpoint_key(const Scenario& s,
                                          std::int64_t index,
                                          const std::string& method) {
  return util::stable_key(
      canonical_training(fabric_switch_scenario(s, index),
                         impute::Registry::base_method(method)) +
      fabric_switch_suffix(s, index));
}

std::vector<Campaign> Engine::fabric_campaigns(const Scenario& s) {
  FMNET_CHECK(s.fabric.enabled(), "scenario has no fabric topology");
  // Fabric campaigns shard per switch; time-sharding would decouple the
  // switches and change the ground truth's meaning.
  FMNET_CHECK_EQ(s.campaign.shard_ms, 0);
  obs::ScopedSpan span("engine.fabric.simulate");
  const std::int64_t n = s.fabric.num_switches();
  const auto un = static_cast<std::size_t>(n);

  std::vector<std::string> keys;
  keys.reserve(un);
  for (std::int64_t i = 0; i < n; ++i) {
    keys.push_back(fabric_campaign_key(s, i));
  }

  // Probe every switch once (exact per-kind hit/miss counters), then load
  // all or re-simulate the whole coupled fabric, re-writing only the
  // switches that missed or failed to parse.
  std::vector<std::optional<Campaign>> cached(un);
  bool all_cached = store_.enabled();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (const auto path = store_.find("fabric-gt", keys[ui])) {
      cached[ui] = try_load<Campaign>(
          *path, [](std::istream& in) { return read_campaign(in); });
    }
    if (!cached[ui].has_value()) all_cached = false;
  }
  if (all_cached) {
    std::vector<Campaign> out;
    out.reserve(un);
    for (auto& c : cached) out.push_back(std::move(*c));
    return out;
  }

  fabric::FabricParams p;
  p.topo = s.fabric;
  p.buffer_size = s.campaign.buffer_size;
  p.slots_per_ms = s.campaign.slots_per_ms;
  p.total_ms = s.campaign.total_ms;
  p.seed = s.campaign.seed;
  p.scheduler = s.campaign.scheduler;
  std::vector<fabric::SwitchGroundTruth> gts = fabric::simulate_fabric(p, pool_);

  std::vector<Campaign> out;
  out.reserve(un);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    Campaign c{std::move(gts[ui].config), std::move(gts[ui].gt)};
    if (!cached[ui].has_value()) {
      store_.put("fabric-gt", keys[ui],
                 [&](std::ostream& os) { write_campaign(os, c); });
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<FabricSwitchResult> Engine::run_fabric_switches(
    const Scenario& s, const std::vector<Campaign>& campaigns) {
  FMNET_CHECK(s.fabric.enabled(), "scenario has no fabric topology");
  const std::int64_t n = s.fabric.num_switches();
  FMNET_CHECK_EQ(static_cast<std::int64_t>(campaigns.size()), n);
  obs::ScopedSpan span("engine.fabric.switches");
  obs::Registry::global().counter("fabric.switch_runs").add(n);
  util::ThreadPool& tp = util::ThreadPool::resolve(pool_);

  // One task per switch; each task's nested parallelism (training
  // micro-shards, CEM repair) recruits only idle lanes. All cross-task
  // state (artifact store, SMT repair cache, obs) is thread-safe and
  // result-invariant, so rows are bit-identical at any lane count.
  return util::parallel_map<FabricSwitchResult>(tp, n, [&](std::int64_t i) {
    const Scenario sw_s = fabric_switch_scenario(s, i);
    const PreparedData data =
        prepare_with_key(sw_s, campaigns[static_cast<std::size_t>(i)],
                         fabric_dataset_key(s, i));
    const Table1Evaluator evaluator(campaigns[static_cast<std::size_t>(i)],
                                    data, sw_s.burst_threshold_fraction,
                                    sw_s.c4);
    FabricSwitchResult res;
    res.name = fabric::switch_name(s.fabric, i);
    res.rows.reserve(sw_s.methods.size());
    impute_methods_with_keys(
        sw_s, data,
        [&](const std::string& base) {
          return fabric_checkpoint_key(s, i, base);
        },
        [&](const std::string&, const impute::Imputer& imputer,
            const std::vector<std::vector<double>>& outputs) {
          res.rows.push_back(evaluator.score(imputer.name(), outputs));
        });
    return res;
  });
}

std::vector<FabricSwitchResult> Engine::run_fabric(const Scenario& s) {
  const std::vector<Campaign> campaigns = fabric_campaigns(s);
  return run_fabric_switches(s, campaigns);
}

}  // namespace fmnet::core
