// Shared pieces of fmnet_bench: options, the result record every
// workload fills, a wall clock, sample statistics, and before/after deltas
// of the process-wide observability counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "impute/imputer.h"

namespace fmnet::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 15.0;
  bool trace = false;
  /// Directory holding the benchmark's scenario files.
  std::string scenario_dir;
  /// Scratch directory for artifact stores; emptied per run.
  std::string work_dir;
  /// Expected Table-1 hash (empty = not pinned for this seed).
  std::string expect_table;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count operations;
/// `notes` are informational key/value pairs (sample counts, hashes, gate
/// outcomes) carried into the result file.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness gate; a failed gate makes the run incorrect.
  void gate(const std::string& name, bool ok) {
    notes["gate." + name] = ok ? "pass" : "FAIL";
    if (!ok) correct = false;
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// Adds the end-to-end latency metric of operation times `op_s`, the 10th
/// percentile, with the median, mean, p95 and sample count as notes.
void add_latency_metrics(const std::vector<double>& op_s, Result& result);

/// Peak resident set size of this process, MiB.
double max_rss_mb();

/// The process-wide obs counters and histogram sums, plus the global
/// pool's lane busy/idle time, at one instant; subtracting two snapshots
/// gives what happened between them.
struct Snapshot {
  std::map<std::string, double> values;

  static Snapshot take();
  /// this - before, per key (missing keys read 0).
  Snapshot minus(const Snapshot& before) const;
  double get(const std::string& key) const;
  void accumulate(const Snapshot& delta);
};

/// a / b, or 0 when b is 0 (a layer the workload never reached).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Imputer decorator that forwards every call and sums its wall time, so
/// the forward pass of a model is timed from outside the library. Its
/// callers here (Table1Evaluator::evaluate, ServeCore::tick) call it from
/// one thread at a time.
class TimedImputer : public impute::Imputer {
 public:
  explicit TimedImputer(std::shared_ptr<impute::Imputer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  void fit(const std::vector<impute::ImputationExample>& examples,
           util::ThreadPool* pool) override {
    inner_->fit(examples, pool);
  }

  std::vector<double> impute(const impute::ImputationExample& ex) override {
    const double t0 = now_s();
    std::vector<double> out = inner_->impute(ex);
    seconds_ += now_s() - t0;
    windows_ += 1;
    return out;
  }

  std::vector<std::vector<double>> impute_batch(
      const std::vector<impute::ImputationExample>& batch) override {
    const double t0 = now_s();
    std::vector<std::vector<double>> out = inner_->impute_batch(batch);
    seconds_ += now_s() - t0;
    windows_ += static_cast<std::int64_t>(batch.size());
    batches_ += 1;
    return out;
  }

  double seconds() const { return seconds_; }
  std::int64_t windows() const { return windows_; }
  std::int64_t batches() const { return batches_; }

 private:
  std::shared_ptr<impute::Imputer> inner_;
  double seconds_ = 0.0;
  std::int64_t windows_ = 0;
  std::int64_t batches_ = 0;
};

/// What the traced operations of one run spent, summed over those
/// operations: wall seconds per stage as timed from the benchmark, the
/// observability deltas, and the traced/untraced operation times that give
/// the tracing overhead.
struct LayerTimes {
  /// Busy wall seconds of the traced operations (the stage shares' base).
  double wall = 0.0;
  /// Wall seconds over which `delta` was taken (the lane shares' base);
  /// longer than `wall` when an open loop sleeps between ticks.
  double lane_wall = 0.0;
  double simulate = 0.0;
  double prepare = 0.0;
  double fit = 0.0;
  double forward = 0.0;
  double cem = 0.0;
  double evaluate_self = 0.0;
  std::int64_t forward_windows = 0;
  std::int64_t forward_batches = 0;
  /// Open loop only: how late each tick started, as a share of the interval.
  std::vector<double> generator_late_frac;
  Snapshot delta;
  std::vector<double> traced_op_s;
  std::vector<double> untraced_op_s;
};

/// Adds every per-layer metric except the tensor roofline gauges.
void add_layer_metrics(const LayerTimes& t, Result& result);

/// Empties `dir` (creating it if needed).
void reset_dir(const std::string& dir);

// Workloads (table1.cpp, serve.cpp) and the tensor roofline (roofline.cpp).
void run_table1(const Options& opt, bool smt, Result& result);
void run_serve(const Options& opt, bool open_loop, Result& result);

struct GemmShape {
  const char* name;
  std::int64_t m, k, n;
};
/// Adds tensor.fma_peak_gflops and, per shape, tensor.gemm_gflops.<name>,
/// tensor.gemm_peak_frac.<name> and tensor.gemm_gbytes_per_s.<name>.
void add_roofline_metrics(const std::vector<GemmShape>& shapes,
                          Result& result);

}  // namespace fmnet::bench
