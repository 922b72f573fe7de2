#include "impute/registry.h"

#include <algorithm>

#include "impute/alt_models.h"
#include "impute/iterative_imputer.h"
#include "impute/knowledge_imputer.h"
#include "impute/linear_interp.h"
#include "impute/rate_imputer.h"
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
    return cem.correct(zeros, ex.constraints, ex.qlen_scale, pool_)
        .corrected;
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

/// The learned bases, each checkpointable; null for any other name.
std::shared_ptr<CheckpointableImputer> build_learned(
    const std::string& base, const MethodParams& params) {
  if (base == "mlp") {
    return std::make_shared<PointwiseMlpImputer>(32, params.train);
  }
  if (base == "gru") return std::make_shared<BiGruImputer>(16, params.train);
  if (base == "rate") {
    return std::make_shared<PhysicsRateImputer>(
        RateImputerConfig{params.model}, params.train);
  }
  if (base == "transformer" || base == "transformer+kal") {
    TrainConfig cfg = params.train;
    cfg.use_kal = base == "transformer+kal";
    return std::make_shared<TransformerImputer>(params.model, cfg,
                                                InferConfig{}, params.pool);
  }
  if (base == "autoencoder") {
    return std::make_shared<AutoencoderImputer>(params.autoencoder,
                                                params.train, params.pool);
  }
  return nullptr;
}

std::shared_ptr<Imputer> build_base(const std::string& base,
                                    const MethodParams& params,
                                    std::shared_ptr<CheckpointableImputer>*
                                        trainable) {
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
