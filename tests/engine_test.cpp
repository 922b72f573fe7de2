// Scenario engine and artifact store: stable cache keys, integrity
// checking, corrupted-artifact recovery, checkpoint round-trips, and
// cold-vs-warm bit-identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/engine.h"
#include "core/evaluation.h"
#include "core/scenario.h"
#include "impute/registry.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "util/hash.h"

namespace fmnet {
namespace {

namespace fs = std::filesystem;

/// A campaign small enough that a full engine run (simulate + prepare +
/// train + evaluate) takes well under a second.
core::Scenario small_scenario() {
  core::Scenario s;
  s.name = "engine-test";
  s.campaign.num_ports = 2;
  s.campaign.buffer_size = 200;
  s.campaign.slots_per_ms = 10;
  s.campaign.total_ms = 400;
  s.campaign.seed = 5;
  s.campaign.shard_ms = 100;
  s.window_ms = 100;
  s.factor = 50;
  s.model.d_model = 8;
  s.model.num_heads = 2;
  s.model.num_layers = 1;
  s.model.d_ff = 16;
  s.model.max_seq_len = 128;
  s.train.epochs = 1;
  s.train.batch_size = 4;
  s.train.seed = 7;
  s.methods = {"linear", "transformer+kal", "transformer+kal+cem"};
  return s;
}

/// Fresh per-test store directory under the system temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("fmnet_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string table_to_string(const std::vector<core::Table1Row>& rows) {
  std::ostringstream os;
  core::print_table1(rows, os);
  return os.str();
}

struct ArtifactCounters {
  std::int64_t hit;
  std::int64_t miss;
  std::int64_t write;
  std::int64_t corrupt;

  static ArtifactCounters now() {
    auto& r = obs::Registry::global();
    return {r.counter("engine.artifact.hit").value(),
            r.counter("engine.artifact.miss").value(),
            r.counter("engine.artifact.write").value(),
            r.counter("engine.artifact.corrupt").value()};
  }

  ArtifactCounters delta(const ArtifactCounters& since) const {
    return {hit - since.hit, miss - since.miss, write - since.write,
            corrupt - since.corrupt};
  }
};

TEST(Hash, StableKeyPinnedAcrossBuilds) {
  // The cache key function must never drift: a different key silently
  // orphans every artifact ever written. Pinned against an independent
  // implementation of the dual-stream FNV-1a.
  EXPECT_EQ(util::stable_key("fmnet-hash-stability"),
            "519717a93ec08db07b87f07e2cbe9a31");
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
}

TEST(Hash, StreamHasherMatchesOneShot) {
  const std::string bytes = "chunked hashing must equal one-shot hashing";
  util::StreamHasher h;
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, bytes.size() - i);
    h.update(bytes.data() + i, n);
  }
  EXPECT_EQ(h.hex(), util::stable_key(bytes));
}

TEST(Hash, StreamHasherMatchesTwoLaneReferenceAcrossChunks) {
  // The artifact digest: 200,000 bytes (more than one 64 KiB read chunk of
  // digest_file) fed in uneven chunks must give exactly the two separate
  // FNV-1a lanes computed one after the other, so every .sum sidecar
  // already on disk keeps verifying.
  std::string bytes(200'000, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131 + (i >> 8)) & 0xff);
  }
  const auto lane = [&](std::uint64_t h) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  char want[33];
  std::snprintf(want, sizeof(want), "%016llx%016llx",
                static_cast<unsigned long long>(lane(0xcbf29ce484222325ULL)),
                static_cast<unsigned long long>(lane(0x84222325cbf29ce4ULL)));
  EXPECT_EQ(std::string(want), "fe4b78251bdc05a5d0d2551c0f3f5ce4");

  util::StreamHasher h;
  const std::size_t chunks[] = {1, 7, 65'536, 3, 65'537, 4'096};
  std::size_t at = 0;
  for (std::size_t k = 0; at < bytes.size(); ++k) {
    const std::size_t n = std::min(chunks[k % 6], bytes.size() - at);
    h.update(bytes.data() + at, n);
    at += n;
  }
  EXPECT_EQ(h.hex(), want);
  EXPECT_EQ(util::stable_key(bytes), want);
}

TEST(Engine, CacheKeysChainThroughStages) {
  const core::Scenario s = small_scenario();

  // A campaign change invalidates every stage.
  core::Scenario seed = s;
  seed.campaign.seed = 6;
  EXPECT_NE(core::Engine::campaign_key(seed.campaign),
            core::Engine::campaign_key(s.campaign));
  EXPECT_NE(core::Engine::dataset_key(seed), core::Engine::dataset_key(s));
  EXPECT_NE(core::Engine::checkpoint_key(seed, "transformer"),
            core::Engine::checkpoint_key(s, "transformer"));

  // Sharding changes per-shard seeds, so it is campaign content identity.
  core::Scenario shard = s;
  shard.campaign.shard_ms = 200;
  EXPECT_NE(core::Engine::campaign_key(shard.campaign),
            core::Engine::campaign_key(s.campaign));

  // A windowing change keeps the campaign but invalidates the dataset on.
  core::Scenario window = s;
  window.factor = 25;
  EXPECT_EQ(core::Engine::campaign_key(window.campaign),
            core::Engine::campaign_key(s.campaign));
  EXPECT_NE(core::Engine::dataset_key(window), core::Engine::dataset_key(s));
  EXPECT_NE(core::Engine::checkpoint_key(window, "transformer"),
            core::Engine::checkpoint_key(s, "transformer"));

  // A training change invalidates only the checkpoint.
  core::Scenario train = s;
  train.train.epochs = 2;
  EXPECT_EQ(core::Engine::dataset_key(train), core::Engine::dataset_key(s));
  EXPECT_NE(core::Engine::checkpoint_key(train, "transformer"),
            core::Engine::checkpoint_key(s, "transformer"));

  // Distinct methods train distinct models — except +cem, which adds no
  // trainable parameters and shares its base's checkpoint.
  EXPECT_NE(core::Engine::checkpoint_key(s, "transformer"),
            core::Engine::checkpoint_key(s, "transformer+kal"));
  EXPECT_EQ(core::Engine::checkpoint_key(s, "transformer+kal"),
            core::Engine::checkpoint_key(s, "transformer+kal+cem"));
}

TEST(ArtifactStore, DisabledStoreMissesAndDropsWrites) {
  const core::ArtifactStore store;
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.find("campaign", "00").has_value());
  EXPECT_FALSE(
      store.put("campaign", "00", [](std::ostream& os) { os << "x"; })
          .has_value());
}

TEST(ArtifactStore, PutThenFindRoundTrips) {
  const core::ArtifactStore store(fresh_dir("store_roundtrip"));
  const auto before = ArtifactCounters::now();

  const auto written = store.put(
      "campaign", "abc123", [](std::ostream& os) { os << "payload bytes"; });
  ASSERT_TRUE(written.has_value());

  const auto found = store.find("campaign", "abc123");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, *written);
  std::ifstream in(*found, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "payload bytes");

  // Distinct kinds with the same key are distinct artifacts.
  EXPECT_FALSE(store.find("dataset", "abc123").has_value());

  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.write, 1);
  EXPECT_EQ(d.hit, 1);
  EXPECT_EQ(d.miss, 1);
  EXPECT_EQ(d.corrupt, 0);
}

TEST(ArtifactStore, CorruptedPayloadIsRejectedAndRemoved) {
  const core::ArtifactStore store(fresh_dir("store_corrupt"));
  const auto path = store.put(
      "dataset", "feed42", [](std::ostream& os) { os << "original"; });
  ASSERT_TRUE(path.has_value());

  // Flip the payload behind the store's back.
  {
    std::ofstream out(*path, std::ios::binary | std::ios::trunc);
    out << "tampered";
  }
  const auto before = ArtifactCounters::now();
  EXPECT_FALSE(store.find("dataset", "feed42").has_value());
  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.corrupt, 1);
  EXPECT_EQ(d.miss, 1);
  EXPECT_EQ(d.hit, 0);

  // The corrupt pair is gone: the next lookup is a clean miss, and a fresh
  // put restores a loadable artifact.
  EXPECT_FALSE(fs::exists(*path));
  const auto before2 = ArtifactCounters::now();
  EXPECT_FALSE(store.find("dataset", "feed42").has_value());
  EXPECT_EQ(ArtifactCounters::now().delta(before2).corrupt, 0);
  store.put("dataset", "feed42", [](std::ostream& os) { os << "again"; });
  EXPECT_TRUE(store.find("dataset", "feed42").has_value());
}

TEST(ArtifactStore, MissingSidecarIsAMiss) {
  const core::ArtifactStore store(fresh_dir("store_nosum"));
  const auto path =
      store.put("checkpoint", "00ff", [](std::ostream& os) { os << "w"; });
  ASSERT_TRUE(path.has_value());
  fs::path sidecar = *path;
  sidecar.replace_extension(".sum");
  fs::remove(sidecar);
  EXPECT_FALSE(store.find("checkpoint", "00ff").has_value());
}

TEST(Engine, CorruptCampaignArtifactIsRecomputed) {
  const core::Scenario s = small_scenario();
  const std::string dir = fresh_dir("engine_recompute");

  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign truth = cold.campaign(s.campaign);

  // Truncate the cached campaign payload.
  const auto path =
      cold.store().find("campaign", core::Engine::campaign_key(s.campaign));
  ASSERT_TRUE(path.has_value());
  { std::ofstream out(*path, std::ios::binary | std::ios::trunc); }

  core::Engine warm{core::ArtifactStore(dir)};
  const core::Campaign recomputed = warm.campaign(s.campaign);
  EXPECT_EQ(truth.gt.queue_len, recomputed.gt.queue_len);
  EXPECT_EQ(truth.gt.port_sent, recomputed.gt.port_sent);
  EXPECT_EQ(truth.gt.port_dropped, recomputed.gt.port_dropped);
  // ... and the store holds a valid artifact again.
  EXPECT_TRUE(
      cold.store()
          .find("campaign", core::Engine::campaign_key(s.campaign))
          .has_value());
}

TEST(Engine, CheckpointRoundTripIsBitIdentical) {
  const core::Scenario s = small_scenario();
  const std::string dir = fresh_dir("engine_checkpoint");

  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign campaign = cold.campaign(s.campaign);
  const core::PreparedData data = cold.prepare(s, campaign);
  ASSERT_FALSE(data.split.test.empty());
  const auto trained = cold.fit_method(s, "transformer+kal", data);

  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const auto loaded = warm.fit_method(s, "transformer+kal", data);
  EXPECT_EQ(ArtifactCounters::now().delta(before).hit, 1);

  for (const auto& ex : data.split.test) {
    EXPECT_EQ(trained.imputer->impute(ex), loaded.imputer->impute(ex));
  }
}

TEST(Engine, RejectedCheckpointRetrainsFromColdWeights) {
  // A checkpoint of the wrong shape under the scenario's key, with a valid
  // digest: only d_ff differs, so the tensors before the first mismatch
  // load cleanly. A load that copied as it checked would leave the model
  // half-overwritten, and the retrain would start from weights a cold run
  // never has.
  core::Scenario s = small_scenario();
  s.methods = {"transformer"};
  const std::string cold_table =
      table_to_string(core::Engine{core::ArtifactStore()}.run(s));

  core::Scenario other = s;
  other.model.d_ff *= 2;
  other.train.seed += 1;  // weights unlike any the cold run draws
  const impute::BuiltImputer wrong =
      impute::Registry::build("transformer", core::method_params(other));
  const std::string dir = fresh_dir("engine_rejected_checkpoint");
  const core::ArtifactStore store(dir);
  ASSERT_TRUE(store
                  .put("checkpoint",
                       core::Engine::checkpoint_key(s, "transformer"),
                       [&](std::ostream& out) {
                         nn::save_parameters(wrong.trainable->model(), out);
                       })
                  .has_value());

  const auto before = ArtifactCounters::now();
  core::Engine engine{core::ArtifactStore(dir)};
  EXPECT_EQ(table_to_string(engine.run(s)), cold_table);
  EXPECT_EQ(ArtifactCounters::now().delta(before).corrupt, 0);
}

TEST(Engine, WarmRunServesFromCacheBitIdentically) {
  const core::Scenario s = small_scenario();
  const std::string dir = fresh_dir("engine_warm");

  const auto t0 = ArtifactCounters::now();
  core::Engine cold{core::ArtifactStore(dir)};
  const auto cold_rows = cold.run(s);
  const auto cold_delta = ArtifactCounters::now().delta(t0);
  // Cold: campaign + dataset + one checkpoint (linear has none, +cem
  // shares the transformer+kal fit) — all misses, all written.
  EXPECT_EQ(cold_delta.miss, 3);
  EXPECT_EQ(cold_delta.write, 3);
  EXPECT_EQ(cold_delta.hit, 0);

  const auto t1 = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const auto warm_rows = warm.run(s);
  const auto warm_delta = ArtifactCounters::now().delta(t1);
  EXPECT_EQ(warm_delta.hit, 3);
  EXPECT_EQ(warm_delta.miss, 0);
  EXPECT_EQ(warm_delta.write, 0);

  ASSERT_EQ(cold_rows.size(), s.methods.size());
  EXPECT_EQ(table_to_string(cold_rows), table_to_string(warm_rows));
  for (std::size_t i = 0; i < cold_rows.size(); ++i) {
    EXPECT_EQ(cold_rows[i].max_constraint, warm_rows[i].max_constraint);
    EXPECT_EQ(cold_rows[i].burst_detection, warm_rows[i].burst_detection);
    EXPECT_EQ(cold_rows[i].empty_queue_freq, warm_rows[i].empty_queue_freq);
  }

  // A cache-less engine produces the same table as both.
  core::Engine plain{core::ArtifactStore()};
  EXPECT_EQ(table_to_string(plain.run(s)), table_to_string(cold_rows));
}

/// Bit-for-bit equality of two Table-1 row sets, every row and field.
void expect_same_rows(const std::vector<core::Table1Row>& got,
                      const std::vector<core::Table1Row>& want,
                      const std::string& who) {
  ASSERT_EQ(got.size(), want.size()) << who;
  const auto fields = [](const core::Table1Row& r) {
    return std::vector<double>{
        r.max_constraint,     r.periodic_constraint, r.sent_constraint,
        r.burst_detection,    r.burst_height,        r.burst_frequency,
        r.burst_interarrival, r.empty_queue_freq,    r.concurrent_bursts,
        r.c4_backlog};
  };
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].method, want[i].method) << who << " row " << i;
    const std::vector<double> g = fields(got[i]);
    const std::vector<double> w = fields(want[i]);
    EXPECT_EQ(std::memcmp(g.data(), w.data(), g.size() * sizeof(double)), 0)
        << who << " row " << i << " (" << want[i].method << ")";
  }
}

/// The per-method evaluation the shared method loop replaces: each base
/// fitted once, "x+cem" as Registry::with_cem around the fitted base, and
/// every method imputed on its own by Table1Evaluator::evaluate.
std::vector<core::Table1Row> evaluate_each_method(
    core::Engine& engine, const core::Scenario& s, const core::Campaign& c,
    const core::PreparedData& data) {
  const core::Table1Evaluator evaluator(c, data, s.burst_threshold_fraction,
                                        s.c4);
  std::map<std::string, impute::BuiltImputer> fitted;
  std::vector<core::Table1Row> rows;
  for (const auto& method : s.methods) {
    const std::string base = impute::Registry::base_method(method);
    if (fitted.count(base) == 0) {
      fitted.emplace(base, engine.fit_method(s, base, data));
    }
    const impute::BuiltImputer& b = fitted.at(base);
    rows.push_back(evaluator.evaluate(
        method == base
            ? *b.imputer
            : *impute::Registry::with_cem(b, core::method_params(s)).imputer));
  }
  return rows;
}

std::int64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(Engine, RunForwardsEachBaseOnceAndMatchesPerMethodEvaluation) {
  core::Scenario s = small_scenario();
  s.methods = {"linear", "iterative", "transformer+kal",
               "transformer+kal+cem"};
  core::Engine engine{core::ArtifactStore()};

  const std::int64_t fwd0 = counter_value("impute.forward.windows");
  const std::int64_t cem0 = counter_value("cem.windows");
  const std::vector<core::Table1Row> rows = engine.run(s);
  const std::int64_t forwarded = counter_value("impute.forward.windows") - fwd0;
  const std::int64_t repaired = counter_value("cem.windows") - cem0;

  const core::Campaign c = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, c);
  const auto test_windows = static_cast<std::int64_t>(data.split.test.size());
  // One model base, forwarded once for both of its columns.
  EXPECT_EQ(forwarded, test_windows);

  const std::int64_t cem1 = counter_value("cem.windows");
  expect_same_rows(rows, evaluate_each_method(engine, s, c, data), "run");
  // CEM repaired as many intervals as evaluating the +cem method alone.
  EXPECT_GT(repaired, 0);
  EXPECT_EQ(repaired, counter_value("cem.windows") - cem1);
}

TEST(Engine, FabricRunMatchesPerMethodEvaluationOnEverySwitch) {
  core::Scenario s = small_scenario();
  s.name = "engine-fabric-test";
  s.fabric.leaves = 2;
  s.fabric.spines = 1;
  s.fabric.hosts_per_leaf = 2;
  s.campaign.buffer_size = 150;
  s.campaign.shard_ms = 0;
  core::Engine engine{core::ArtifactStore()};

  const std::int64_t fwd0 = counter_value("impute.forward.windows");
  const std::vector<core::FabricSwitchResult> results = engine.run_fabric(s);
  const std::int64_t forwarded = counter_value("impute.forward.windows") - fwd0;

  const std::vector<core::Campaign> campaigns = engine.fabric_campaigns(s);
  ASSERT_EQ(results.size(), campaigns.size());
  std::int64_t test_windows = 0;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const core::Scenario sw =
        core::Engine::fabric_switch_scenario(s, static_cast<std::int64_t>(i));
    const core::PreparedData data = engine.prepare(sw, campaigns[i]);
    test_windows += static_cast<std::int64_t>(data.split.test.size());
    expect_same_rows(results[i].rows,
                     evaluate_each_method(engine, sw, campaigns[i], data),
                     results[i].name);
  }
  EXPECT_EQ(forwarded, test_windows);
}

TEST(ArtifactStore, StaleTempFilesNeverShadowAPut) {
  // Regression for the torn-write window: writers used to stage at the
  // shared name `<artifact>.tmp`, so a crashed writer's half-written file
  // could be renamed into place by a healthy writer's commit. Staging is
  // now per-writer unique; a stale .tmp must neither break a put nor leak
  // into the published payload.
  const core::ArtifactStore store(fresh_dir("store_staletmp"));
  const auto probe =
      store.put("dataset", "cafe01", [](std::ostream& os) { os << "probe"; });
  ASSERT_TRUE(probe.has_value());
  const std::string stale = *probe + ".tmp";
  {
    std::ofstream out(stale, std::ios::binary);
    out << "half-writ";
  }

  const auto path = store.put(
      "dataset", "cafe01", [](std::ostream& os) { os << "fresh payload"; });
  ASSERT_TRUE(path.has_value());
  const auto found = store.find("dataset", "cafe01");
  ASSERT_TRUE(found.has_value());
  std::ifstream in(*found, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "fresh payload");
  // The stale file is inert — never renamed over the artifact.
  EXPECT_TRUE(fs::exists(stale));
}

TEST(Engine, TruncatedDatasetPayloadDegradesToRecomputation) {
  core::Scenario s = small_scenario();
  s.faults.seed = 4;
  s.faults.lanz_drop = 0.4;
  s.faults.periodic_drop = 0.4;
  const std::string dir = fresh_dir("engine_truncated");

  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign campaign = cold.campaign(s.campaign);
  const core::PreparedData truth = cold.prepare(s, campaign);
  ASSERT_FALSE(truth.quality.empty());

  // Truncate the cached dataset mid-payload, keeping the (now stale)
  // digest sidecar: exactly what a torn write would have produced.
  const auto path = cold.store().find("dataset", core::Engine::dataset_key(s));
  ASSERT_TRUE(path.has_value());
  {
    std::ifstream in(*path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str().substr(0, 40);
    std::ofstream out(*path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const core::PreparedData recomputed = warm.prepare(s, campaign);
  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.corrupt, 1);
  EXPECT_EQ(d.hit, 0);

  EXPECT_EQ(truth.quality.periodic_valid, recomputed.quality.periodic_valid);
  EXPECT_EQ(truth.quality.lanz_valid, recomputed.quality.lanz_valid);
  ASSERT_EQ(truth.split.train.size(), recomputed.split.train.size());
  for (std::size_t i = 0; i < truth.split.train.size(); ++i) {
    EXPECT_EQ(truth.split.train[i].features,
              recomputed.split.train[i].features);
    EXPECT_EQ(truth.split.train[i].constraints.window_max_valid,
              recomputed.split.train[i].constraints.window_max_valid);
  }
}

/// Byte offset of the first training example's first sample index in a
/// clean (format 1) dataset payload, following core/engine.cpp's layout:
/// format word, four dataset-config fields and the coarse factor, five
/// coarse series vectors, then the training examples.
std::size_t first_sample_idx_offset(const std::string& bytes) {
  const auto u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return static_cast<std::size_t>(v);
  };
  std::size_t at = sizeof(std::uint32_t) + 5 * 8;
  for (int series_vec = 0; series_vec < 5; ++series_vec) {
    const std::size_t n = u64(at);
    at += 8;
    for (std::size_t i = 0; i < n; ++i) at += 8 + 8 + u64(at + 8) * 8;
  }
  at += 8;                      // example count
  at += 8 + u64(at) * 4;        // features
  at += 8 + u64(at) * 4;        // target
  EXPECT_GT(u64(at), 0u);       // sample_idx length
  return at + 8;
}

TEST(Engine, MalformedDatasetRecordIsRecomputed) {
  const core::Scenario s = small_scenario();
  const std::string dir = fresh_dir("engine_malformed_record");
  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign campaign = cold.campaign(s.campaign);
  const core::PreparedData truth = cold.prepare(s, campaign);

  // Move one sample index outside its window and store the payload again
  // under a valid digest: the store's integrity check passes, so only the
  // record check can keep imputers from indexing out of bounds.
  const std::string key = core::Engine::dataset_key(s);
  const auto path = cold.store().find("dataset", key);
  ASSERT_TRUE(path.has_value());
  std::string bytes;
  {
    std::ifstream in(*path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  const std::int64_t outside = 1'000'000;
  std::memcpy(bytes.data() + first_sample_idx_offset(bytes), &outside,
              sizeof outside);
  cold.store().put("dataset", key,
                   [&](std::ostream& out) { out << bytes; });

  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const core::PreparedData loaded = warm.prepare(s, campaign);
  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.hit, 1);    // the payload is intact...
  EXPECT_EQ(d.write, 1);  // ...but its record fails to parse: rebuilt
  ASSERT_FALSE(loaded.split.train.empty());
  EXPECT_EQ(loaded.split.train.front().constraints.sample_idx,
            truth.split.train.front().constraints.sample_idx);
}

TEST(Engine, MaskedDatasetRoundTripsThroughStoreBitIdentically) {
  core::Scenario s = small_scenario();
  s.faults.seed = 8;
  s.faults.periodic_drop = 0.3;
  s.faults.lanz_drop = 0.3;
  const std::string dir = fresh_dir("engine_masked");

  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign campaign = cold.campaign(s.campaign);
  const core::PreparedData written = cold.prepare(s, campaign);
  ASSERT_FALSE(written.quality.empty());

  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const core::PreparedData loaded = warm.prepare(s, campaign);
  EXPECT_EQ(ArtifactCounters::now().delta(before).hit, 1);

  EXPECT_EQ(written.quality.periodic_valid, loaded.quality.periodic_valid);
  EXPECT_EQ(written.quality.lanz_valid, loaded.quality.lanz_valid);
  ASSERT_EQ(written.split.test.size(), loaded.split.test.size());
  for (std::size_t i = 0; i < written.split.test.size(); ++i) {
    EXPECT_EQ(written.split.test[i].features, loaded.split.test[i].features);
    EXPECT_EQ(written.split.test[i].target, loaded.split.test[i].target);
    EXPECT_EQ(written.split.test[i].constraints.sample_idx,
              loaded.split.test[i].constraints.sample_idx);
    EXPECT_EQ(written.split.test[i].constraints.window_max_valid,
              loaded.split.test[i].constraints.window_max_valid);
  }
}

TEST(Engine, SeverityZeroFaultsHitTheCleanCache) {
  // The acceptance bar for the faults subsystem: with every fault at
  // severity 0 the dataset key, the cached payload, and the evaluation are
  // byte-identical to a scenario with no faults block at all.
  const core::Scenario clean = small_scenario();
  core::Scenario zeroed = small_scenario();
  zeroed.faults.periodic_drop = 0.9;
  zeroed.faults.noise = 5.0;
  zeroed.faults.snmp_wrap_bits = 32;
  zeroed.faults.severity = 0.0;
  ASSERT_FALSE(zeroed.faults.enabled());
  ASSERT_EQ(core::Engine::dataset_key(zeroed),
            core::Engine::dataset_key(clean));

  const std::string dir = fresh_dir("engine_sev0");
  core::Engine cold{core::ArtifactStore(dir)};
  const auto clean_rows = cold.run(clean);

  // The severity-0 run is fully warm: same keys, same payload bytes.
  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const auto zeroed_rows = warm.run(zeroed);
  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.hit, 3);
  EXPECT_EQ(d.miss, 0);
  EXPECT_EQ(d.write, 0);
  EXPECT_EQ(table_to_string(clean_rows), table_to_string(zeroed_rows));
}

}  // namespace
}  // namespace fmnet
