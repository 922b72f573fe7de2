// The one training loop every learned imputer runs (DESIGN.md §13): a
// model family contributes only a network factory, a forward and,
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
  /// Penalty scale μ of the Knowledge-Augmented Loss (and of the
  /// autoencoder's fixed-weight penalty).
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

/// One forward of a model family: the network (the master or a training
/// lane's replica), the stacked [b, T, C] features of examples[rows] and a
/// dropout stream -> [b, T - output_from] normalised queue lengths of steps
/// [output_from, T); every row of a call shares output_from =
/// examples[rows[r]].output_from. Training passes the training set (whole
/// windows: output_from 0) and one micro-shard's indices; inference passes
/// the batch and one inference shard's rows, under a tensor::InferenceGuard
/// with the network in eval mode. Row r of the output may depend only on
/// window examples[rows[r]], and each step must equal that step of the
/// whole-window forward, so a batched forward equals the per-window loop
/// and an online window equals the tail of its offline imputation.
using ModelForward = std::function<tensor::Tensor(
    const nn::Module& net, const tensor::Tensor& x,
    const std::vector<ImputationExample>& examples,
    const std::vector<std::size_t>& rows, fmnet::Rng& dropout)>;

/// A per-example training penalty on the [T] prediction row of
/// examples[index].
using Penalty =
    std::function<tensor::Tensor(const tensor::Tensor& row, std::size_t index)>;

/// A learned model family: a network and its forward, plus an optional
/// training penalty. Everything else — the training loop, batched
/// inference, checkpointing — is shared (train_model, ModelImputer).
struct ModelFamily {
  /// Method name as it appears in result tables.
  std::string name;
  /// Builds the network with weights drawn from `rng`.
  std::function<std::unique_ptr<nn::Module>(fmnet::Rng& rng)> make_net;
  ModelForward forward;
  /// Optional: the penalty for one training run over `examples`, made when
  /// the run starts, so it may keep per-example state sized by the training
  /// set (KAL's multipliers) and may reject a training set the network
  /// cannot take. A null result adds no penalty. The shard loss gains
  /// penalty_weight × the shard's mean penalty. The penalty is called
  /// concurrently, but never twice for one index in a batch, so per-index
  /// state needs no lock.
  std::function<Penalty(const std::vector<ImputationExample>& examples)>
      penalty;
  float penalty_weight = 0.0f;
};

/// Trains `model`, a network of `family`, on `examples` and returns each
/// epoch's mean batch loss. Every epoch reshuffles with `rng`; every batch
/// of config.batch_size is cut into micro-shards of config.micro_batch
/// examples, forwarded and backpropagated concurrently on `pool` (null =
/// global pool) over per-lane model replicas (family.make_net from a
/// throwaway Rng; their weights are overwritten from `model` before every
/// batch), each with dropout drawn from a stream derived from
/// (config.seed, shard number).
/// Shard gradients are summed in shard order, clipped to config.grad_clip
/// and applied by Adam under a cosine learning-rate decay, so the trained
/// weights are bit-identical at every lane count. Leaves `model` in eval
/// mode. family.name labels the verbose per-epoch lines.
std::vector<float> train_model(nn::Module& model,
                               const std::vector<ImputationExample>& examples,
                               const TrainConfig& config,
                               const ModelFamily& family, fmnet::Rng& rng,
                               util::ThreadPool* pool);

}  // namespace fmnet::impute
