// Shared setup for the paper-reproduction benches: default campaign and
// model/training configurations, scaled down when FMNET_FAST=1 so the whole
// bench suite smoke-runs in seconds.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/engine.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "core/scenario.h"
#include "impute/registry.h"
#include "obs/export.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fmnet::bench {

/// Declared first in main so its destructor runs last: exports the run's
/// metrics (FMNET_METRICS=<path> JSON, FMNET_METRICS_TABLE=1 stderr table)
/// after the bench finishes. Every bench emits the same
/// "fmnet.metrics.v1" schema, so CI can archive BENCH_*.json artifacts
/// uniformly.
struct ScopedMetricsDump {
  ScopedMetricsDump() = default;
  ScopedMetricsDump(const ScopedMetricsDump&) = delete;
  ScopedMetricsDump& operator=(const ScopedMetricsDump&) = delete;
  ~ScopedMetricsDump() { obs::finalize(); }
};

/// Integer environment override (FMNET_EPOCHS, FMNET_TOTAL_MS) so bench
/// scale can be tuned without rebuilding; falls back to `fallback`.
inline std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::atoll(v);
}

/// Paper-scale defaults (shrunk in fast mode): 8-port switch, 90 slots/ms,
/// multi-second campaign at 1 ms granularity, 50 ms telemetry.
/// `full_ms` lets multi-model benches choose a shorter campaign than the
/// headline Table-1 run; FMNET_TOTAL_MS overrides either.
inline core::CampaignConfig default_campaign(std::uint64_t seed = 42,
                                             std::int64_t full_ms = 10'000) {
  core::CampaignConfig cfg;
  cfg.seed = seed;
  if (fast_mode()) {
    cfg.num_ports = 4;
    cfg.buffer_size = 300;
    cfg.slots_per_ms = 30;
    cfg.total_ms = 1'200;
  } else {
    cfg.num_ports = 8;
    cfg.buffer_size = 600;
    cfg.slots_per_ms = 90;
    cfg.total_ms = full_ms;
  }
  cfg.total_ms = env_int("FMNET_TOTAL_MS", cfg.total_ms);
  // Generate as independent 600 ms sub-campaigns so simulation parallelises
  // across FMNET_THREADS; the result is a pure function of (seed, shard_ms)
  // regardless of thread count. FMNET_SHARD_MS=0 restores the contiguous
  // single-seed run.
  cfg.shard_ms = env_int("FMNET_SHARD_MS", 600);
  return cfg;
}

inline nn::TransformerConfig default_model() {
  nn::TransformerConfig cfg;
  cfg.input_channels = telemetry::kNumInputChannels;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq_len = 512;
  return cfg;
}

inline impute::TrainConfig default_training(std::uint64_t seed = 1) {
  impute::TrainConfig cfg;
  cfg.epochs = static_cast<int>(env_int("FMNET_EPOCHS",
                                        fast_mode() ? 4 : 30));
  cfg.batch_size = 8;
  cfg.lr = 3e-3f;
  cfg.seed = seed;
  return cfg;
}

/// The bench defaults bundled as a Scenario, ready for core::Engine: the
/// default campaign plus the default model/training hyper-parameters.
/// Callers set `methods` themselves. With FMNET_ARTIFACT_DIR set, bench
/// re-runs then serve simulation and transformer training from the
/// artifact cache.
inline core::Scenario default_scenario(std::uint64_t seed = 42,
                                       std::int64_t full_ms = 10'000) {
  core::Scenario s;
  s.name = "bench";
  s.campaign = default_campaign(seed, full_ms);
  s.model = default_model();
  s.train = default_training();
  return s;
}

inline void print_header(const char* title) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf("(deterministic seeds; FMNET_FAST=%s; FMNET_THREADS=%zu)\n",
              fast_mode() ? "1 (smoke scale)" : "0 (paper scale)",
              util::ThreadPool::configured_threads());
  std::printf("==========================================================\n");
}

/// Renders a small ASCII sparkline of a series (for figure benches).
inline void ascii_plot(const char* label, const std::vector<double>& v,
                       double v_max) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::printf("%-22s|", label);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double frac = v_max > 0 ? v[i] / v_max : 0.0;
    const int level =
        std::min(7, static_cast<int>(frac * 7.999));
    std::printf("%s", kLevels[std::max(0, level)]);
  }
  std::printf("|\n");
}

}  // namespace fmnet::bench
