// fmnet_bench — one workload of the end-to-end benchmark per process.
//
//   fmnet_bench --workload table1-cold --seed 42 --seconds 15 --trace 0
//               --scenarios benchmark/scenarios --work-dir <scratch dir>
//               [--expect-table <hash>]
//
// Workloads: table1-cold, table1-warm-smt (table1.cpp), serve-slo,
// serve-saturate (serve.cpp). --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics of a traced run instead. Pool
// lanes come from FMNET_THREADS (the caller is one of them); fmnet_bench
// starts no threads of its own.
//
// Prints one JSON object on the last line of stdout: correct, attempted,
// failed, metrics {name: {value, unit}} and notes. Exits 1 when a
// correctness gate fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "harness.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

using namespace fmnet;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fmnet_bench --workload <table1-cold|table1-warm-smt|"
               "serve-slo|serve-saturate> --seed N --seconds S --trace 0|1 "
               "--scenarios DIR --work-dir DIR [--expect-table HASH]\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_json(const bench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const bench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}, \"notes\": {");
  bool first = true;
  for (const auto& [k, v] : r.notes) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ",
                json_escape(k).c_str(), json_escape(v).c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// The Linear shapes of the workloads' models: the FFN input projection
/// [rows, d_model] x [d_model, d_ff] for a training batch, one Table-1
/// window, and one full serving batch.
std::vector<bench::GemmShape> model_shapes(const bench::Options& opt) {
  const core::Scenario t =
      core::load_scenario_file(opt.scenario_dir + "/table1.scn");
  const core::Scenario s =
      core::load_scenario_file(opt.scenario_dir + "/serve.scn");
  const auto window = static_cast<std::int64_t>(t.window_ms);
  return {
      {"train", t.train.batch_size * window, t.model.d_model, t.model.d_ff},
      {"window", window, t.model.d_model, t.model.d_ff},
      {"serve", s.serve.max_batch * static_cast<std::int64_t>(s.window_ms),
       s.model.d_model, s.model.d_ff},
  };
}

/// Keeps every pool lane waking and sleeping for `seconds` before anything
/// is timed. On a 4-vCPU KVM guest (Xeon, AVX-512) the first ~0.5 s of
/// fine-grained parallel work after an idle spell ran up to 2x slow (the
/// serving set-up read 0.16 s instead of 0.085 s), a cost a running system
/// does not pay on every operation.
void warm_up_pool(double seconds) {
  util::ThreadPool& pool = util::ThreadPool::global();
  std::vector<double> sink(pool.size() * 8, 0.0);
  const double t0 = bench::now_s();
  while (bench::now_s() - t0 < seconds) {
    pool.parallel_for(0, static_cast<std::int64_t>(sink.size()),
                      [&](std::int64_t i) {
                        double x = 0.0;
                        for (int k = 1; k < 20000; ++k) x += 1.0 / k;
                        sink[static_cast<std::size_t>(i)] += x;
                      });
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--scenarios") {
      opt.scenario_dir = value;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--expect-table") {
      opt.expect_table = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.scenario_dir.empty() || opt.work_dir.empty() ||
      opt.seconds <= 0.0) {
    return usage();
  }

  bench::Result result;
  try {
    bench::reset_dir(opt.work_dir);
    warm_up_pool(1.0);
    if (opt.workload == "table1-cold") {
      bench::run_table1(opt, /*smt=*/false, result);
    } else if (opt.workload == "table1-warm-smt") {
      bench::run_table1(opt, /*smt=*/true, result);
    } else if (opt.workload == "serve-slo") {
      bench::run_serve(opt, /*open_loop=*/true, result);
    } else if (opt.workload == "serve-saturate") {
      bench::run_serve(opt, /*open_loop=*/false, result);
    } else {
      return usage();
    }
    if (opt.trace) bench::add_roofline_metrics(model_shapes(opt), result);
    bench::reset_dir(opt.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fmnet_bench: %s\n", e.what());
    return 1;
  }
  result.notes["lanes"] =
      std::to_string(util::ThreadPool::global().size());
  result.notes["nproc"] =
      std::to_string(std::thread::hardware_concurrency());
  result.notes["tensor.isa"] =
      tensor::kernels::isa_name(tensor::kernels::active_isa());
  print_json(result);
  return result.correct ? 0 : 1;
}
