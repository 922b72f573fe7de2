// google-benchmark microbenchmarks of the substrates: tensor ops,
// transformer forward/backward, smtlite solving, switch simulation
// throughput, and single-interval CEM repair.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <string>

#include "core/pipeline.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "impute/cem.h"
#include "nn/losses.h"
#include "nn/transformer.h"
#include "smt/model.h"
#include "smt/solver.h"
#include "switchsim/switch.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "traffic/sources.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace fmnet;

void BM_TensorMatmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const auto a = tensor::Tensor::randn({n, n}, rng);
  const auto b = tensor::Tensor::randn({n, n}, rng);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).data().data());
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // A matmul is 2*m*k*n FLOPs (multiply + add per inner-product step).
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(flops));
  state.counters["gflops"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  if (elapsed_s > 0.0) {
    obs::Registry::global()
        .gauge("bench.gemm.n" + std::to_string(n) + ".gflops")
        .set_max(flops * 1e-9 * static_cast<double>(state.iterations()) /
                 elapsed_s);
  }
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(64)->Arg(128);

void BM_TransformerForwardBackward(benchmark::State& state) {
  Rng rng(2);
  nn::TransformerConfig cfg;
  cfg.input_channels = 4;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq_len = 512;
  nn::ImputationTransformer model(cfg, rng);
  const auto x = tensor::Tensor::randn({4, state.range(0), 4}, rng);
  const auto y = tensor::Tensor::randn({4, state.range(0)}, rng);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    model.zero_grad();
    auto loss = nn::emd_loss(model.forward(x, rng), y);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state.SetItemsProcessed(state.iterations());
  if (elapsed_s > 0.0) {
    obs::Registry::global()
        .gauge("bench.transformer.t" + std::to_string(state.range(0)) +
               ".steps_per_s")
        .set_max(static_cast<double>(state.iterations()) / elapsed_s);
  }
}
BENCHMARK(BM_TransformerForwardBackward)->Arg(100)->Arg(300);

// The attention block's inference forward at the two model shapes: Arg
// 100 is a serving shard (B = 16 windows of T = 100, one head of width 8),
// Arg 300 a Table-1 window (B = 1, T = 300, two heads of width 8). Windows
// per second on the calling thread.
void BM_AttentionForward(benchmark::State& state) {
  const std::int64_t t = state.range(0);
  const std::int64_t batch = t == 100 ? 16 : 1;
  const std::int64_t heads = t == 100 ? 1 : 2;
  Rng rng(3);
  const auto q = tensor::Tensor::randn({batch, t, heads * 8}, rng);
  const auto k = tensor::Tensor::randn({batch, t, heads * 8}, rng);
  const auto v = tensor::Tensor::randn({batch, t, heads * 8}, rng);
  const float scale = 1.0f / std::sqrt(8.0f);
  tensor::InferenceGuard guard;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::attention(q, k, v, heads, scale).data().data());
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state.SetItemsProcessed(state.iterations() * batch);
  if (elapsed_s > 0.0) {
    obs::Registry::global()
        .gauge("bench.attention.t" + std::to_string(t) + ".win_per_s")
        .set_max(static_cast<double>(state.iterations() * batch) /
                 elapsed_s);
  }
}
BENCHMARK(BM_AttentionForward)->Arg(100)->Arg(300);

// The attention block's training step, forward (keeping P) and backward,
// at the same two shapes: Arg 100 is a B = 16 shard of T = 100 windows
// with one head, Arg 300 a Table-1 window (B = 1, T = 300, two heads).
// The output is weighted so every upstream gradient element differs.
// Windows per second on the calling thread.
void BM_AttentionTrain(benchmark::State& state) {
  const std::int64_t t = state.range(0);
  const std::int64_t batch = t == 100 ? 16 : 1;
  const std::int64_t heads = t == 100 ? 1 : 2;
  Rng rng(4);
  const tensor::Shape shape{batch, t, heads * 8};
  auto q = tensor::Tensor::randn(shape, rng, 1.0f, true);
  auto k = tensor::Tensor::randn(shape, rng, 1.0f, true);
  auto v = tensor::Tensor::randn(shape, rng, 1.0f, true);
  const auto w = tensor::Tensor::randn(shape, rng);
  const float scale = 1.0f / std::sqrt(8.0f);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    q.zero_grad();
    k.zero_grad();
    v.zero_grad();
    auto loss = tensor::sum(tensor::attention(q, k, v, heads, scale) * w);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state.SetItemsProcessed(state.iterations() * batch);
  if (elapsed_s > 0.0) {
    obs::Registry::global()
        .gauge("bench.attention.t" + std::to_string(t) + ".train_win_per_s")
        .set_max(static_cast<double>(state.iterations() * batch) /
                 elapsed_s);
  }
}
BENCHMARK(BM_AttentionTrain)->Arg(100)->Arg(300);

void BM_SwitchStepThroughput(benchmark::State& state) {
  switchsim::SwitchConfig cfg;
  cfg.num_ports = static_cast<std::int32_t>(state.range(0));
  cfg.buffer_size = 600;
  auto source = traffic::make_paper_workload(cfg.num_ports, 7);
  switchsim::OutputQueuedSwitch sw(cfg);
  std::vector<switchsim::Arrival> arrivals;
  std::int64_t slot = 0;
  for (auto _ : state) {
    arrivals.clear();
    source->generate(slot++, arrivals);
    sw.step(arrivals);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchStepThroughput)->Arg(8)->Arg(32);

void BM_SmtPigeonholeSat(benchmark::State& state) {
  // Satisfiable instance: P pigeons, P holes.
  const int p_count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    smt::Model m;
    std::vector<std::vector<smt::VarId>> in(p_count);
    for (int p = 0; p < p_count; ++p) {
      smt::LinExpr sum;
      for (int h = 0; h < p_count; ++h) {
        in[p].push_back(m.new_bool());
        sum = sum + smt::LinExpr(in[p][h]);
      }
      m.add_linear(sum, smt::Cmp::kEq, 1);
    }
    for (int h = 0; h < p_count; ++h) {
      smt::LinExpr sum;
      for (int p = 0; p < p_count; ++p) sum = sum + smt::LinExpr(in[p][h]);
      m.add_linear(sum, smt::Cmp::kLe, 1);
    }
    smt::Solver solver(m);
    benchmark::DoNotOptimize(solver.solve().status);
  }
}
BENCHMARK(BM_SmtPigeonholeSat)->Arg(8)->Arg(16);

void BM_CemFastRepairInterval(benchmark::State& state) {
  Rng rng(3);
  const std::int64_t factor = state.range(0);
  constraints::ExampleConstraints c;  // packet units: qlen_scale 1
  c.coarse_factor = factor;
  c.window_max = {40.0f};
  c.port_sent = {static_cast<float>(factor / 2)};
  c.sample_idx = {0};
  c.sample_val = {10.0f};
  std::vector<double> imputed(static_cast<std::size_t>(factor));
  for (auto& v : imputed) v = rng.uniform(0.0, 50.0);
  impute::ConstraintEnforcementModule cem;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cem.correct(imputed, c, 1.0).objective);
  }
}
BENCHMARK(BM_CemFastRepairInterval)->Arg(50)->Arg(200);

// Campaign generation sharded across an explicit thread count. The output
// is bit-identical for every Arg; the wall-clock ratio between Arg(1) and
// Arg(4) is the tentpole speedup figure (≈ #cores on a 4+-core host).
void BM_CampaignShardedThreads(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  core::CampaignConfig cfg;
  cfg.num_ports = 4;
  cfg.buffer_size = 300;
  cfg.slots_per_ms = 30;
  cfg.total_ms = 1'200;
  cfg.shard_ms = 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_campaign(cfg, &pool).gt.num_ms());
  }
  state.SetItemsProcessed(state.iterations() * cfg.total_ms);
}
BENCHMARK(BM_CampaignShardedThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Multi-window CEM correction with the SMT engine (the expensive one),
// windows solved concurrently on an explicit thread count.
void BM_CemCorrectThreads(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  const std::int64_t factor = 15;
  const std::int64_t windows = 8;
  constraints::ExampleConstraints c;  // packet units: qlen_scale 1
  c.coarse_factor = factor;
  std::vector<double> imputed;
  for (std::int64_t w = 0; w < windows; ++w) {
    c.window_max.push_back(40.0f);
    c.port_sent.push_back(static_cast<float>(factor / 2));
    c.sample_idx.push_back(w * factor);
    c.sample_val.push_back(10.0f);
    for (std::int64_t t = 0; t < factor; ++t) {
      imputed.push_back(rng.uniform(0.0, 50.0));
    }
  }
  impute::CemConfig cem_cfg;
  cem_cfg.engine = impute::CemEngine::kSmtBranchAndBound;
  impute::ConstraintEnforcementModule cem(cem_cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cem.correct(imputed, c, 1.0, &pool).objective);
  }
  state.SetItemsProcessed(state.iterations() * windows);
}
BENCHMARK(BM_CemCorrectThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_EmdLoss(benchmark::State& state) {
  Rng rng(4);
  const auto a = tensor::Tensor::randn({8, 300}, rng, 1.0f, true);
  const auto b = tensor::Tensor::randn({8, 300}, rng);
  for (auto _ : state) {
    auto loss = nn::emd_loss(a, b);
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_EmdLoss);

}  // namespace

// Expanded BENCHMARK_MAIN() with a final metrics export, so CI's
// bench-smoke job can archive the FMNET_METRICS JSON alongside the
// google-benchmark output.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Pool effectiveness across the whole bench run (hits / pooled lookups).
  const auto ps = fmnet::tensor::pool::stats();
  if (ps.hits + ps.misses > 0) {
    fmnet::obs::Registry::global()
        .gauge("bench.tensor_pool.hit_rate")
        .set(static_cast<double>(ps.hits) /
             static_cast<double>(ps.hits + ps.misses));
  }
  fmnet::obs::Registry::global()
      .gauge("bench.tensor_pool.reused_mb")
      .set(static_cast<double>(ps.reused_bytes) / (1024.0 * 1024.0));
  fmnet::obs::finalize();
  return 0;
}
