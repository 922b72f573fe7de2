// The one training loop every learned imputer runs (DESIGN.md §13): a
// model family contributes only a replica factory, a forward and,
// optionally, a per-example penalty; shuffling, the cosine learning-rate
// schedule, micro-sharding over pool lanes, gradient reduction, clipping,
// Adam and the train.* instrumentation live here once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "impute/imputer.h"
#include "nn/module.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fmnet::impute {

struct TrainConfig {
  int epochs = 30;
  int batch_size = 8;
  float lr = 3e-3f;
  /// Cosine-decay floor: the learning rate anneals from `lr` to
  /// `lr * lr_final_fraction` across the epochs (1.0 = constant).
  float lr_final_fraction = 0.1f;
  float grad_clip = 1.0f;
  enum class Loss { kEmd, kMse } loss = Loss::kEmd;
  /// Knowledge-Augmented Loss: augmented-Lagrangian constraint penalties.
  bool use_kal = false;
  float kal_mu = 0.5f;
  /// Global weight multiplying the KAL penalty in the loss.
  float kal_weight = 1.0f;
  std::uint64_t seed = 1;
  bool verbose = false;
  /// Data-parallel gradient accumulation: each batch is cut into fixed
  /// micro-shards of at most this many examples, which are forwarded and
  /// backpropagated independently (concurrently when a pool has spare
  /// lanes) and reduced in shard order. The decomposition — and therefore
  /// every trained weight — depends only on this value and the seed, never
  /// on the thread count.
  int micro_batch = 1;
};

/// What a model family plugs into train_model.
struct TrainHooks {
  /// A model of the master's architecture for one extra pool lane. Its
  /// weights are overwritten from the master before every batch, so its
  /// initialisation never influences results.
  std::function<std::unique_ptr<nn::Module>()> make_replica;
  /// One micro-shard's training forward: the lane's model (the master or a
  /// replica made by make_replica), the stacked [b, T, C] features of
  /// examples[shard] and the shard's dropout stream -> [b, T] normalised
  /// queue lengths.
  std::function<tensor::Tensor(nn::Module& model, const tensor::Tensor& x,
                               const std::vector<std::size_t>& shard,
                               fmnet::Rng& dropout)>
      forward;
  /// Optional per-example penalty on the [T] prediction row of
  /// examples[index]; the shard loss gains penalty_weight × the shard's
  /// mean penalty. Called concurrently, but never twice for one index in a
  /// batch, so per-index state needs no lock.
  std::function<tensor::Tensor(const tensor::Tensor& row, std::size_t index)>
      penalty;
  float penalty_weight = 0.0f;
};

/// A TrainHooks::make_replica building Net(args..., rng) from a throwaway
/// Rng.
template <class Net, class... Args>
std::function<std::unique_ptr<nn::Module>()> replicas_of(Args... args) {
  return [=] {
    fmnet::Rng init_rng(0);
    return std::make_unique<Net>(args..., init_rng);
  };
}

/// Trains `model` on `examples` and returns each epoch's mean batch loss.
/// Every epoch reshuffles with `rng`; every batch of config.batch_size is
/// cut into micro-shards of config.micro_batch examples, forwarded and
/// backpropagated concurrently on `pool` (null = global pool) over
/// per-lane model replicas, each with dropout drawn from a stream derived
/// from (config.seed, shard number).
/// Shard gradients are summed in shard order, clipped to config.grad_clip
/// and applied by Adam under a cosine learning-rate decay, so the trained
/// weights are bit-identical at every lane count. Leaves `model` in eval
/// mode. `name` labels the verbose per-epoch lines.
std::vector<float> train_model(nn::Module& model,
                               const std::vector<ImputationExample>& examples,
                               const TrainConfig& config,
                               const TrainHooks& hooks, fmnet::Rng& rng,
                               util::ThreadPool* pool,
                               const std::string& name);

}  // namespace fmnet::impute
