#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace fmnet::bench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void add_latency_metrics(const std::vector<double>& op_s, Result& result) {
  // Only the fast decile is bounded: on a shared virtual machine the host
  // runs in slow phases, about 1.4x, lasting seconds to minutes, and the
  // share of a run they cover moves the median, the mean and the tail
  // from run to run (README, "Bounds"). The rest is reported as notes.
  result.add("latency_p10_ms", 1e3 * percentile(op_s, 10), "ms");
  result.notes["latency_p50_ms"] = std::to_string(1e3 * median(op_s));
  result.notes["latency_mean_ms"] = std::to_string(1e3 * mean(op_s));
  result.notes["latency_p95_ms"] = std::to_string(1e3 * percentile(op_s, 95));
  result.notes["latency_samples"] = std::to_string(op_s.size());
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

Snapshot Snapshot::take() {
  Snapshot s;
  auto& reg = obs::Registry::global();
  for (const auto& [name, v] : reg.counters()) {
    s.values["counter." + name] = static_cast<double>(v);
  }
  for (const auto& [name, h] : reg.histograms()) {
    s.values["hist." + name + ".sum"] = h->sum();
    s.values["hist." + name + ".count"] = static_cast<double>(h->count());
  }
  double busy = 0.0;
  double idle = 0.0;
  for (const auto& lane : util::ThreadPool::global().lane_stats()) {
    busy += lane.busy_s;
    idle += lane.idle_s;
  }
  s.values["lanes.busy_s"] = busy;
  s.values["lanes.idle_s"] = idle;
  return s;
}

Snapshot Snapshot::minus(const Snapshot& before) const {
  Snapshot d;
  for (const auto& [k, v] : values) d.values[k] = v - before.get(k);
  return d;
}

double Snapshot::get(const std::string& key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

void Snapshot::accumulate(const Snapshot& delta) {
  for (const auto& [k, v] : delta.values) values[k] += v;
}

void add_layer_metrics(const LayerTimes& t, Result& result) {
  const Snapshot& d = t.delta;
  const auto counter = [&](const char* name) {
    return d.get(std::string("counter.") + name);
  };
  const auto share = [&](double part) { return ratio(part, t.wall); };
  const double attributed = t.simulate + t.prepare + t.fit + t.forward +
                            t.cem + t.evaluate_self;
  result.add("core.simulate_frac", share(t.simulate), "frac");
  result.add("core.prepare_frac", share(t.prepare), "frac");
  result.add("impute.fit_frac", share(t.fit), "frac");
  result.add("impute.forward_frac", share(t.forward), "frac");
  result.add("impute.cem_frac", share(t.cem), "frac");
  result.add("tasks.evaluate_self_frac", share(t.evaluate_self), "frac");
  result.add("core.unattributed_frac", 1.0 - share(attributed), "frac");

  const double hits = counter("engine.artifact.hit");
  result.add("core.artifact_hit_frac",
             ratio(hits, hits + counter("engine.artifact.miss")), "frac");
  result.add("switchsim.slots_per_s", ratio(counter("sim.slots"), t.simulate),
             "1/s");
  result.add("nn.epochs_per_s", ratio(counter("train.epochs"), t.fit), "1/s");
  result.add("nn.micro_shards_per_s",
             ratio(counter("train.micro_shards"), t.fit), "1/s");

  result.add("impute.forward_us_per_window",
             1e6 * ratio(t.forward, static_cast<double>(t.forward_windows)),
             "us");
  // CEM repairs one coarse interval per window; the histogram holds the
  // lane time of each repair.
  const double cem_windows = d.get("hist.cem.window_ms.count");
  result.add("impute.cem_us_per_window",
             1e3 * ratio(d.get("hist.cem.window_ms.sum"), cem_windows), "us");
  for (const char* name : {"solves", "decisions", "propagations",
                           "conflicts"}) {
    result.add(std::string("smt.") + name + "_per_window",
               ratio(counter((std::string("smt.") + name).c_str()),
                     counter("cem.windows")),
               "count");
  }
  const double cache_hits = counter("smt.cache.hit");
  result.add("smt.cache_hit_frac",
             ratio(cache_hits, cache_hits + counter("smt.cache.miss")), "frac");
  const double warm = counter("smt.warm.accepted");
  result.add("smt.warm_accept_frac",
             ratio(warm, warm + counter("smt.warm.rejected")), "frac");

  result.add("serve.batch_windows_mean",
             ratio(static_cast<double>(t.forward_windows),
                   static_cast<double>(t.forward_batches)),
             "count");
  result.add("serve.generator_late_frac_p95",
             percentile(t.generator_late_frac, 95.0), "frac");

  const double pool_hits = counter("tensor.pool.hit");
  result.add("tensor.pool_hit_frac",
             ratio(pool_hits, pool_hits + counter("tensor.pool.miss")), "frac");
  const double lane_s =
      t.lane_wall * static_cast<double>(util::ThreadPool::global().size());
  result.add("util.pool_busy_frac", ratio(d.get("lanes.busy_s"), lane_s),
             "frac");
  result.add("util.pool_idle_frac", ratio(d.get("lanes.idle_s"), lane_s),
             "frac");
  result.add("trace_overhead_frac",
             ratio(median(t.traced_op_s), median(t.untraced_op_s)) - 1.0,
             "frac");
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace fmnet::bench
