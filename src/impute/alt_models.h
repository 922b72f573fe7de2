// Architecture baselines for the "why a transformer?" question (§2.2
// claims transformers are particularly suitable): a bidirectional GRU and
// a pointwise MLP (no temporal mixing at all), trained through the same
// train_model loop and objective. Compared in bench/ablation_architecture.
#pragma once

#include <memory>

#include "impute/imputer.h"
#include "impute/training.h"
#include "nn/gru.h"
#include "nn/layers.h"

namespace fmnet::impute {

/// Bidirectional-GRU imputer (recurrent baseline).
class BiGruImputer : public CheckpointableImputer {
 public:
  BiGruImputer(std::int64_t hidden_size, TrainConfig config);

  std::string name() const override { return "BiGRU"; }
  void fit(const std::vector<ImputationExample>& examples,
           util::ThreadPool* pool = nullptr) override;
  std::vector<double> impute(const ImputationExample& ex) override;

  nn::BiGruImputerNet& model() override { return *net_; }

 private:
  std::int64_t hidden_size_;
  TrainConfig config_;
  fmnet::Rng rng_;
  std::unique_ptr<nn::BiGruImputerNet> net_;
};

/// Per-step MLP: [B, T, C] -> GELU(hidden) -> GELU(hidden) -> [B, T], each
/// step's coarse features seen in isolation.
class PointwiseMlpNet : public nn::Module {
 public:
  PointwiseMlpNet(std::int64_t channels, std::int64_t hidden_size,
                  fmnet::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& x) const;
  std::vector<tensor::Tensor> parameters() const override;

 private:
  nn::Linear l1_;
  nn::Linear l2_;
  nn::Linear l3_;
};

/// Per-step MLP imputer — an ablation of temporal context.
class PointwiseMlpImputer : public CheckpointableImputer {
 public:
  PointwiseMlpImputer(std::int64_t hidden_size, TrainConfig config);

  std::string name() const override { return "PointwiseMLP"; }
  void fit(const std::vector<ImputationExample>& examples,
           util::ThreadPool* pool = nullptr) override;
  std::vector<double> impute(const ImputationExample& ex) override;

  PointwiseMlpNet& model() override { return *net_; }

 private:
  std::int64_t hidden_size_;
  TrainConfig config_;
  fmnet::Rng rng_;
  std::unique_ptr<PointwiseMlpNet> net_;
};

}  // namespace fmnet::impute
