// Batched inference throughput: windows/s of the per-window serving loop
// vs stacking B windows into one [B, T, C] forward
// (impute::TransformerImputer::impute_batch). Also asserts, with exit
// status, the correctness contract the CI gate leans on: batched fp32 ==
// per-window loop bit-for-bit (any B).
//
// Gauges (best-of-run via set_max; the speedup via set):
//   bench.batched.loop.win_per_s    per-window fp32 loop
//   bench.batched.b4.win_per_s      batched fp32, B=4
//   bench.batched.b16.win_per_s     batched fp32, B=16
//   bench.batched.speedup_b16       b16 / loop (within this run)
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace fmnet;

namespace {

// Synthetic coarse-feature windows in normalised units (qlen_scale 1, so
// model outputs compare directly). An untrained model is fine for
// throughput purposes: the weights are random but fixed by the seed, and
// every path sees the same ones.
std::vector<telemetry::ImputationExample> make_windows(std::size_t count,
                                                       std::size_t window) {
  fmnet::Rng rng(123);
  std::vector<telemetry::ImputationExample> out(count);
  for (auto& ex : out) {
    ex.window = window;
    ex.qlen_scale = 1.0;
    ex.count_scale = 1.0;
    ex.features.resize(window * telemetry::kNumInputChannels);
    for (auto& f : ex.features) {
      f = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    ex.target.assign(window, 0.0f);  // never read by impute
  }
  return out;
}

}  // namespace

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header("Batched transformer inference");

  const bool fast = fast_mode();
  const std::size_t window = fast ? 90 : 300;   // 6 coarse intervals
  const std::size_t num_windows = fast ? 32 : 64;
  const auto reps =
      static_cast<std::size_t>(bench::env_int("FMNET_BATCH_REPS",
                                              fast ? 3 : 5));

  impute::TransformerImputer imputer(bench::default_model(),
                                     bench::default_training(false));
  const auto windows = make_windows(num_windows, window);

  // ---- correctness: batched fp32 must equal the loop bit-for-bit --------
  std::vector<std::vector<double>> loop_out;
  loop_out.reserve(num_windows);
  for (const auto& ex : windows) loop_out.push_back(imputer.impute(ex));
  for (const std::size_t b : {std::size_t{4}, std::size_t{16}}) {
    for (std::size_t begin = 0; begin < num_windows; begin += b) {
      const std::vector<telemetry::ImputationExample> chunk(
          windows.begin() + static_cast<std::ptrdiff_t>(begin),
          windows.begin() + static_cast<std::ptrdiff_t>(begin + b));
      const auto batched = imputer.impute_batch(chunk);
      for (std::size_t i = 0; i < b; ++i) {
        if (batched[i] != loop_out[begin + i]) {
          std::fprintf(stderr,
                       "FAIL: batched (B=%zu) forward diverges from the "
                       "per-window loop at window %zu\n",
                       b, begin + i);
          return 1;
        }
      }
    }
  }

  // ---- throughput -------------------------------------------------------
  auto time_windows_per_s = [&](std::size_t batch) {
    fmnet::Stopwatch clock;
    for (std::size_t r = 0; r < reps; ++r) {
      if (batch <= 1) {
        for (const auto& ex : windows) (void)imputer.impute(ex);
      } else {
        for (std::size_t begin = 0; begin < num_windows; begin += batch) {
          const std::vector<telemetry::ImputationExample> chunk(
              windows.begin() + static_cast<std::ptrdiff_t>(begin),
              windows.begin() + static_cast<std::ptrdiff_t>(begin + batch));
          (void)imputer.impute_batch(chunk);
        }
      }
    }
    return static_cast<double>(reps * num_windows) /
           clock.elapsed_seconds();
  };

  const double loop_wps = time_windows_per_s(1);
  const double b4_wps = time_windows_per_s(4);
  const double b16_wps = time_windows_per_s(16);
  const double speedup_b16 = b16_wps / loop_wps;

  auto& reg = obs::Registry::global();
  reg.gauge("bench.batched.loop.win_per_s").set_max(loop_wps);
  reg.gauge("bench.batched.b4.win_per_s").set_max(b4_wps);
  reg.gauge("bench.batched.b16.win_per_s").set_max(b16_wps);
  reg.gauge("bench.batched.speedup_b16").set(speedup_b16);

  Table table({"path", "windows/s", "vs loop"});
  table.add_row({"per-window loop (fp32)", Table::fmt(loop_wps), "1.00x"});
  table.add_row({"batched B=4 (fp32)", Table::fmt(b4_wps),
                 Table::fmt(b4_wps / loop_wps) + "x"});
  table.add_row({"batched B=16 (fp32)", Table::fmt(b16_wps),
                 Table::fmt(speedup_b16) + "x"});
  table.print(std::cout);
  std::printf("\nshape check — batched fp32 bit-identical to the loop: PASS\n");
  return 0;
}
