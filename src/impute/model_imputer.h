// The one learned-model imputer (DESIGN.md §13): a model family (a
// network and its forward, impute/training.h) trained through train_model
// and inferred through a lane-parallel sharded forward of the same family
// forward. Every learned registry method — mlp, gru, rate, transformer,
// transformer+kal, autoencoder — is a ModelImputer over one entry of the
// registry's family table.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "impute/imputer.h"
#include "impute/training.h"
#include "nn/module.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fmnet::impute {

class ModelImputer : public Imputer {
 public:
  /// Builds the family's network from an Rng seeded with train.seed; the
  /// same Rng then drives train()'s shuffles. Inference fans out on `pool`
  /// (null = global pool), which must outlive the imputer; train()/fit()
  /// take their pool per call.
  ModelImputer(ModelFamily family, TrainConfig train,
               util::ThreadPool* pool = nullptr);

  std::string name() const override { return family_.name; }

  /// Trains the network on `examples` through train_model, micro-shards
  /// spread over `pool` (null = global pool), and returns each epoch's mean
  /// batch loss. The trained weights are bit-identical at every lane count.
  std::vector<float> train(const std::vector<ImputationExample>& examples,
                           util::ThreadPool* pool = nullptr);

  /// Imputer::fit — train() without the losses.
  void fit(const std::vector<ImputationExample>& examples,
           util::ThreadPool* pool = nullptr) override {
    train(examples, pool);
  }

  /// impute_batch({ex}).front().
  std::vector<double> impute(const ImputationExample& ex) override;

  /// Lane-parallel batched inference. The batch is cut into shards of
  /// consecutive windows that share their length T and output_from, at
  /// most max(1, kShardRows / T) each (model_imputer.cpp), so shard
  /// boundaries never depend on the lane count.
  /// Every shard is stacked into one [b, T, C] tensor and run through the
  /// family forward under a tensor::InferenceGuard — no autograd graph,
  /// pooled activations recycled across calls — concurrently across lanes
  /// (a single shard runs inline). out[i] is window i's prediction of
  /// steps [output_from, T) in packets, clamped at zero. A window's rows
  /// never mix with another window's inside the forward, so the result
  /// equals forwarding each window alone, bit for bit. Counts the batch in
  /// `impute.forward.windows`.
  std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) override;

  /// The full learned state, the handle the engine checkpoints through
  /// nn/serialize. It is built complete from configuration, so a warm run
  /// loads weights into it without ever calling fit().
  nn::Module& model() { return *net_; }

 private:
  ModelFamily family_;
  TrainConfig train_;
  util::ThreadPool* pool_ = nullptr;
  fmnet::Rng rng_;
  std::unique_ptr<nn::Module> net_;
};

}  // namespace fmnet::impute
