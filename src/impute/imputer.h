// Common interface for telemetry imputation methods (paper §4 compares
// four: IterativeImputer, Transformer, Transformer+KAL,
// Transformer+KAL+CEM).
//
// An Imputer sees only what the operator has — the coarse-grained features
// and constraint data of an example — and produces the fine-grained
// queue-length series in packets. It must never read ex.target (the ground
// truth); evaluation code compares against the target afterwards.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "telemetry/dataset.h"
#include "util/thread_pool.h"

namespace fmnet::impute {

using telemetry::ImputationExample;

/// A fine-grained queue-length imputation method.
class Imputer {
 public:
  virtual ~Imputer() = default;

  /// Human-readable method name as it appears in result tables.
  virtual std::string name() const = 0;

  /// Fits the method to training examples. The default is a no-op: purely
  /// analytical methods (linear interpolation, iterative ridge refits, the
  /// FM-alone solver) have nothing to learn. Learned methods override this
  /// so callers — the scenario engine in particular — can train any
  /// registry-constructed imputer uniformly. `pool` null = global pool.
  virtual void fit(const std::vector<ImputationExample>& examples,
                   util::ThreadPool* pool = nullptr) {
    (void)examples;
    (void)pool;
  }

  /// Imputes the fine-grained queue length (in packets) of steps
  /// [ex.output_from, ex.window) — exactly ex.window − ex.output_from
  /// values, the whole window offline and the newest interval online —
  /// from the example's coarse features/constraints. Each returned step is
  /// the value a whole-window imputation (output_from 0) returns for it.
  virtual std::vector<double> impute(const ImputationExample& ex) = 0;

  /// Imputes many independent windows at once; out[i] corresponds to
  /// batch[i] and holds the steps impute(batch[i]) returns. The default
  /// just loops impute(); model-backed imputers override it to stack the
  /// windows into one forward pass (the batched inference path — see
  /// DESIGN.md), which must match the loop bit-for-bit since each window's
  /// rows are computed independently.
  virtual std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) {
    std::vector<std::vector<double>> out;
    out.reserve(batch.size());
    for (const ImputationExample& ex : batch) out.push_back(impute(ex));
    return out;
  }

 protected:
  /// impute() of every window of `batch`, windows spread over `pool`
  /// (null = global pool) and results stored by index — the impute_batch
  /// of an imputer whose impute() is a thread-safe function of its window
  /// alone, which therefore equals the loop above at any lane count.
  std::vector<std::vector<double>> impute_each(
      const std::vector<ImputationExample>& batch, util::ThreadPool* pool) {
    return util::parallel_map<std::vector<double>>(
        util::ThreadPool::resolve(pool),
        static_cast<std::int64_t>(batch.size()), [&](std::int64_t i) {
          return impute(batch[static_cast<std::size_t>(i)]);
        });
  }
};

/// Steps [ex.output_from, ex.window) of `whole`, a whole-window
/// imputation of ex: what an imputer that must compute every step returns.
inline std::vector<double> output_steps(std::vector<double> whole,
                                        const ImputationExample& ex) {
  whole.erase(whole.begin(),
              whole.begin() + static_cast<std::ptrdiff_t>(ex.output_from));
  return whole;
}

}  // namespace fmnet::impute
