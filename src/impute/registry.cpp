#include "impute/registry.h"

#include <algorithm>

#include "impute/iterative_imputer.h"
#include "impute/knowledge_imputer.h"
#include "impute/linear_interp.h"
#include "nn/gru.h"
#include "nn/kal.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::impute {

namespace {

/// FM-alone (paper §2.3) behind the Imputer interface: no learned model —
/// the imputation is *any* feasible witness of the per-interval C1–C3
/// constraint system, found by handing the constraints to the smtlite
/// branch-and-bound engine with an all-zero preference (so the witness is
/// the minimal-mass plausible scenario). Sound by construction; the
/// scalability wall the paper hits with Z3 shows up here as the smt budget.
class FmOnlyImputer : public Imputer {
 public:
  FmOnlyImputer(CemConfig config, util::ThreadPool* pool)
      : pool_(pool) {
    config.engine = CemEngine::kSmtBranchAndBound;
    cem_config_ = config;
  }

  std::string name() const override { return "FM-alone"; }

  std::vector<double> impute(const ImputationExample& ex) override {
    const std::vector<double> zeros(ex.window, 0.0);
    ConstraintEnforcementModule cem(cem_config_);
    return output_steps(
        cem.correct(zeros, ex.constraints, ex.qlen_scale, pool_).corrected,
        ex);
  }
  std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) override {
    return impute_each(batch, pool_);
  }

 private:
  CemConfig cem_config_;
  util::ThreadPool* pool_;
};

struct ParsedName {
  std::string base;
  bool with_cem = false;
};

ParsedName parse_name(const std::string& name) {
  constexpr const char* kSuffix = "+cem";
  constexpr std::size_t kSuffixLen = 4;
  ParsedName p;
  p.base = name;
  if (name.size() > kSuffixLen &&
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0) {
    p.base = name.substr(0, name.size() - kSuffixLen);
    p.with_cem = true;
  }
  return p;
}

using tensor::Tensor;

constexpr auto kChannels =
    static_cast<std::int64_t>(telemetry::kNumInputChannels);

/// Largest |net inflow| per fine step of the rate family, in normalised
/// queue units: the port-rate physical bound.
constexpr float kMaxStepDelta = 0.5f;

/// The first step every row of a family forward returns (ModelForward).
std::int64_t output_from(const std::vector<ImputationExample>& examples,
                         const std::vector<std::size_t>& rows) {
  return static_cast<std::int64_t>(examples[rows.front()].output_from);
}

/// Steps [output_from, T) of a whole-window [b, T] prediction: the output
/// of a family whose network cannot skip rows.
Tensor output_tail(const Tensor& whole,
                   const std::vector<ImputationExample>& examples,
                   const std::vector<std::size_t>& rows) {
  const std::int64_t from = output_from(examples, rows);
  return from == 0 ? whole : tensor::slice(whole, 1, from, whole.dim(1));
}

/// The forward of a family whose network is `Net`, called as net.forward(x)
/// on the whole window.
template <class Net>
Tensor plain_forward(const nn::Module& net, const Tensor& x,
                     const std::vector<ImputationExample>& examples,
                     const std::vector<std::size_t>& rows, fmnet::Rng&) {
  return output_tail(static_cast<const Net&>(net).forward(x), examples, rows);
}

const nn::ImputationTransformer& transformer_of(const nn::Module& net) {
  return static_cast<const nn::ImputationTransformer&>(net);
}

/// The transformer computes only the steps it returns.
Tensor transformer_forward(const nn::Module& net, const Tensor& x,
                           const std::vector<ImputationExample>& examples,
                           const std::vector<std::size_t>& rows,
                           fmnet::Rng& dropout) {
  return transformer_of(net).forward(x, dropout, output_from(examples, rows));
}

/// The rate family (§5's "other means of integrating network knowledge"):
/// the transformer predicts an intermediate physical quantity, the per-step
/// net inflow 0.5·tanh(net(x)), and the queue follows from the known
/// queue-evolution law, a Lindley recursion:
///
///     q[0] = the window's first periodic sample (0 without one),
///     q[t+1] = max(0, q[t] + inflow[t]).
///
/// Non-negativity and bounded slope then hold by construction rather than
/// being learned, and gradients flow through the recursion in training.
/// The recursion runs from the window's first step, so the whole window is
/// forwarded and the tail kept.
Tensor rate_forward(const nn::Module& net, const Tensor& x,
                    const std::vector<ImputationExample>& examples,
                    const std::vector<std::size_t>& rows,
                    fmnet::Rng& dropout) {
  const std::int64_t b = x.dim(0);
  const std::int64_t t_len = x.dim(1);
  std::vector<float> q0;
  q0.reserve(rows.size());
  for (const std::size_t i : rows) {
    const std::vector<float>& samples = examples[i].constraints.sample_val;
    q0.push_back(samples.empty() ? 0.0f : samples.front());
  }
  const Tensor rates = tensor::mul_scalar(
      tensor::tanh(transformer_of(net).forward(x, dropout)),
      kMaxStepDelta);  // [B, T]

  Tensor q = Tensor::from_vector(std::move(q0), {b, 1});
  std::vector<Tensor> steps;
  steps.reserve(static_cast<std::size_t>(t_len));
  steps.push_back(q);  // q[0] is the (known) sampled initial state
  for (std::int64_t t = 0; t + 1 < t_len; ++t) {
    const Tensor net_t = tensor::slice(rates, 1, t, t + 1);  // [B, 1]
    q = tensor::relu(q + net_t);
    steps.push_back(q);
  }
  return output_tail(tensor::reshape(tensor::cat(steps, 1), {b, t_len}),
                     examples, rows);
}

/// The learned bases, one ModelImputer per family; null for any other
/// name. Network sizes and the order of their parameters are checkpoint
/// material: a change here must come with a new checkpoint key.
std::shared_ptr<ModelImputer> build_learned(const std::string& base,
                                            const MethodParams& params) {
  TrainConfig train = params.train;
  ModelFamily family;
  const nn::TransformerConfig model = params.model;
  const auto transformer_net = [model](fmnet::Rng& rng) {
    FMNET_CHECK_EQ(model.input_channels, kChannels);
    return std::make_unique<nn::ImputationTransformer>(model, rng);
  };
  if (base == "mlp") {
    family.name = "PointwiseMLP";
    family.make_net = [](fmnet::Rng& rng) {
      return std::make_unique<PointwiseMlpNet>(kChannels, 32, rng);
    };
    family.forward = plain_forward<PointwiseMlpNet>;
  } else if (base == "gru") {
    family.name = "BiGRU";
    family.make_net = [](fmnet::Rng& rng) {
      return std::make_unique<nn::BiGruImputerNet>(kChannels, 16, rng);
    };
    family.forward = plain_forward<nn::BiGruImputerNet>;
  } else if (base == "rate") {
    family.name = "RateTransformer";
    family.make_net = transformer_net;
    family.forward = rate_forward;
  } else if (base == "transformer" || base == "transformer+kal") {
    family.name = base == "transformer" ? "Transformer" : "Transformer+KAL";
    family.make_net = transformer_net;
    family.forward = transformer_forward;
    if (base == "transformer+kal") {
      // The Knowledge-Augmented Loss (§3.1): augmented-Lagrangian
      // penalties with per-example multipliers over the training set.
      family.penalty = [mu = train.kal_mu](
                           const std::vector<ImputationExample>& examples)
          -> Penalty {
        auto kal = std::make_shared<nn::KalState>(examples.size(), mu);
        return [&examples, kal](const Tensor& row, std::size_t i) {
          const nn::KalTerms terms =
              nn::kal_penalty(row, examples[i].constraints, kal->lambda_eq(i),
                              kal->lambda_ineq(i), kal->mu());
          kal->update(i, terms.phi, terms.psi);
          return terms.penalty;
        };
      };
      family.penalty_weight = train.kal_weight;
    }
  } else if (base == "autoencoder") {
    const AutoencoderConfig ae = params.autoencoder;
    family.name = "Autoencoder";
    family.make_net = [ae](fmnet::Rng& rng) {
      return std::make_unique<AutoencoderNet>(ae, kChannels, rng);
    };
    family.forward = plain_forward<AutoencoderNet>;
    family.penalty = [ae, mu = train.kal_mu](
                         const std::vector<ImputationExample>& examples)
        -> Penalty {
      // The net is sized for one window length; reject any other up front.
      for (const ImputationExample& ex : examples) {
        FMNET_CHECK_EQ(static_cast<std::int64_t>(ex.window), ae.window);
      }
      if (ae.penalty_weight <= 0.0f) return nullptr;
      // Fixed-weight domain-knowledge penalty: kal_penalty with zero
      // multipliers, i.e. the pure quadratic μΦ²/μΨ² terms — no
      // augmented-Lagrangian multiplier schedule (DESIGN.md §13).
      return [&examples, mu](const Tensor& row, std::size_t i) {
        return nn::kal_penalty(row, examples[i].constraints, 0.0f, 0.0f, mu)
            .penalty;
      };
    };
    family.penalty_weight = ae.penalty_weight;
    // One micro-shard per batch: the whole batch is one forward, so
    // training runs inline on the calling lane (finer shards would regroup
    // the loss sums and move every trained weight).
    train.micro_batch = train.batch_size;
  } else {
    return nullptr;
  }
  return std::make_shared<ModelImputer>(std::move(family), train,
                                        params.pool);
}

std::shared_ptr<Imputer> build_base(const std::string& base,
                                    const MethodParams& params,
                                    std::shared_ptr<ModelImputer>* trainable) {
  if (base == "linear") {
    return std::make_shared<LinearInterpImputer>(params.pool);
  }
  if (base == "iterative") {
    return std::make_shared<IterativeImputer>(IterativeImputerConfig{},
                                              params.pool);
  }
  if (base == "fm") {
    return std::make_shared<FmOnlyImputer>(params.cem, params.pool);
  }
  *trainable = build_learned(base, params);
  FMNET_CHECK(*trainable != nullptr, "unknown imputation method: " + base);
  return *trainable;
}

}  // namespace

const std::vector<std::string>& Registry::known_methods() {
  static const std::vector<std::string> kMethods = [] {
    const std::vector<std::string> bases = {
        "linear", "iterative", "fm",          "mlp",
        "gru",    "rate",      "transformer", "transformer+kal",
        "autoencoder"};
    std::vector<std::string> all;
    for (const auto& b : bases) {
      all.push_back(b);
      // Analytical methods are either already exact (fm) or deliberately
      // naive baselines; +cem composes with every trainable base.
      if (b != "fm") all.push_back(b + "+cem");
    }
    return all;
  }();
  return kMethods;
}

bool Registry::is_known(const std::string& name) {
  const auto& m = known_methods();
  return std::find(m.begin(), m.end(), name) != m.end();
}

std::string Registry::base_method(const std::string& name) {
  return parse_name(name).base;
}

BuiltImputer Registry::build(const std::string& name,
                             const MethodParams& params) {
  FMNET_CHECK(is_known(name), "unknown imputation method: " + name);
  const ParsedName parsed = parse_name(name);
  BuiltImputer built;
  built.imputer = build_base(parsed.base, params, &built.trainable);
  if (parsed.with_cem) {
    built.imputer = std::make_shared<KnowledgeAugmentedImputer>(
        built.imputer, params.cem, params.pool);
  }
  return built;
}

BuiltImputer Registry::with_cem(const BuiltImputer& base,
                                const MethodParams& params) {
  BuiltImputer out;
  out.trainable = base.trainable;
  out.imputer = std::make_shared<KnowledgeAugmentedImputer>(
      base.imputer, params.cem, params.pool);
  return out;
}

std::shared_ptr<Imputer> Registry::create(const std::string& name,
                                          const MethodParams& params) {
  return build(name, params).imputer;
}

}  // namespace fmnet::impute
