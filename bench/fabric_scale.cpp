// Fabric-scale campaign throughput: the per-switch phase (prepare + train
// + evaluate for every switch of a leaf–spine fabric) sharded over 1/2/4/8
// pool lanes, plus cold-vs-warm end-to-end runs through the per-switch
// artifact cache. Doubles as a correctness gate: the bench exits non-zero
// unless every lane count produces bit-identical per-switch tables and the
// warm run serves every switch's ground truth from the store.
//
// Gauges (best-of-run via set_max for throughputs; ratios via set):
//   bench.fabric.lanes{1,2,4,8}.sw_per_s   per-switch phase, switches/s
//   bench.fabric.speedup_8v1               lanes8 / lanes1 wall-clock
//   bench.fabric.speedup_best              best lane count / lanes1
//   bench.fabric.cold_s / warm_s           end-to-end run seconds
//   bench.fabric.warm_speedup              cold_s / warm_s
//   bench.fabric.cores                     hardware threads of the machine
//                                          (lane speedups cannot exceed it)
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace fmnet;

namespace {

std::string results_to_string(
    const std::vector<core::FabricSwitchResult>& results) {
  std::ostringstream os;
  for (const auto& r : results) {
    os << "== " << r.name << " ==\n";
    core::print_table1(r.rows, os);
  }
  return os.str();
}

/// The bench fabric: 8 leaves x 4 spines at paper scale (4 x 2 in fast
/// mode), checkpointable transformer+kal per switch so the warm run
/// restores per-switch weights instead of training.
core::Scenario fabric_scenario() {
  const bool fast = fast_mode();
  core::Scenario s;
  s.name = "bench-fabric";
  s.fabric.leaves = fast ? 4 : 8;
  s.fabric.spines = fast ? 2 : 4;
  s.fabric.hosts_per_leaf = fast ? 2 : 4;
  s.campaign.seed = 42;
  s.campaign.buffer_size = fast ? 300 : 600;
  s.campaign.slots_per_ms = fast ? 30 : 90;
  s.campaign.total_ms = bench::env_int("FMNET_TOTAL_MS", fast ? 600 : 3'000);
  s.campaign.shard_ms = 0;  // the fabric simulation is one coupled run
  s.window_ms = fast ? 150 : 300;
  s.factor = 50;
  s.model = bench::default_model();
  s.train = bench::default_training();
  s.train.epochs = static_cast<int>(bench::env_int("FMNET_EPOCHS",
                                                   fast ? 2 : 6));
  s.methods = {"transformer+kal"};
  return s;
}

}  // namespace

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header("Fabric-scale campaigns: per-switch sharding");

  const core::Scenario s = fabric_scenario();
  const auto n = static_cast<double>(s.fabric.num_switches());
  auto& reg = obs::Registry::global();
  const unsigned cores = std::thread::hardware_concurrency();
  reg.gauge("bench.fabric.cores").set(static_cast<double>(cores));
  std::printf("fabric: %lld leaves x %lld spines, %lld ms campaign, "
              "%u hardware threads\n\n",
              static_cast<long long>(s.fabric.leaves),
              static_cast<long long>(s.fabric.spines),
              static_cast<long long>(s.campaign.total_ms), cores);

  // Simulate the coupled fabric once (store disabled): the lane sweep
  // times ONLY the per-switch phase over these campaigns.
  core::Engine sim_engine{core::ArtifactStore()};
  const auto campaigns = sim_engine.fabric_campaigns(s);

  // ---- lane sweep over the per-switch phase -----------------------------
  Table table({"lanes", "switches/s", "vs 1 lane"});
  std::string reference;
  double sw_per_s_1 = 0.0;
  double best_speedup = 0.0;
  double speedup_8v1 = 0.0;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}}) {
    util::ThreadPool pool(lanes);
    core::Engine engine{core::ArtifactStore(), &pool};
    fmnet::Stopwatch clock;
    const auto results = engine.run_fabric_switches(s, campaigns);
    const double sw_per_s = n / clock.elapsed_seconds();
    const std::string flat = results_to_string(results);
    if (reference.empty()) {
      reference = flat;
      sw_per_s_1 = sw_per_s;
    } else if (flat != reference) {
      std::fprintf(stderr,
                   "FAIL: per-switch results at %zu lanes diverge from the "
                   "1-lane run\n",
                   lanes);
      return 1;
    }
    const double speedup = sw_per_s / sw_per_s_1;
    best_speedup = std::max(best_speedup, speedup);
    if (lanes == 8) speedup_8v1 = speedup;
    reg.gauge("bench.fabric.lanes" + std::to_string(lanes) + ".sw_per_s")
        .set_max(sw_per_s);
    table.add_row({std::to_string(lanes), Table::fmt(sw_per_s),
                   Table::fmt(speedup) + "x"});
  }
  reg.gauge("bench.fabric.speedup_8v1").set(speedup_8v1);
  reg.gauge("bench.fabric.speedup_best").set(best_speedup);
  table.print(std::cout);

  // ---- cold vs warm through the per-switch artifact cache ---------------
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fmnet_bench_fabric";
  fs::remove_all(dir);
  double cold_s = 0.0;
  double warm_s = 0.0;
  std::string cold_out;
  {
    core::Engine cold{core::ArtifactStore(dir.string())};
    fmnet::Stopwatch clock;
    cold_out = results_to_string(cold.run_fabric(s));
    cold_s = clock.elapsed_seconds();
  }
  const auto gt_hits_before =
      reg.counter("engine.artifact.hit.fabric-gt").value();
  {
    core::Engine warm{core::ArtifactStore(dir.string())};
    fmnet::Stopwatch clock;
    const std::string warm_out = results_to_string(warm.run_fabric(s));
    warm_s = clock.elapsed_seconds();
    if (warm_out != cold_out) {
      std::fprintf(stderr, "FAIL: warm fabric run diverges from cold\n");
      return 1;
    }
  }
  const auto gt_hits =
      reg.counter("engine.artifact.hit.fabric-gt").value() - gt_hits_before;
  fs::remove_all(dir);
  if (gt_hits != s.fabric.num_switches()) {
    std::fprintf(stderr,
                 "FAIL: warm run hit %lld/%lld per-switch ground-truth "
                 "artifacts\n",
                 static_cast<long long>(gt_hits),
                 static_cast<long long>(s.fabric.num_switches()));
    return 1;
  }
  reg.gauge("bench.fabric.cold_s").set(cold_s);
  reg.gauge("bench.fabric.warm_s").set(warm_s);
  reg.gauge("bench.fabric.warm_speedup").set(cold_s / warm_s);
  std::printf("\ncold end-to-end: %.2f s, warm: %.2f s (%.2fx; all %lld "
              "switch ground truths served from cache)\n",
              cold_s, warm_s, cold_s / warm_s,
              static_cast<long long>(gt_hits));
  std::printf("shape check — per-switch tables bit-identical at every lane "
              "count: PASS\n");
  return 0;
}
