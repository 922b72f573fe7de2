#include "impute/knowledge_imputer.h"

#include <string>

#include "obs/span.h"
#include "util/check.h"

namespace fmnet::impute {

namespace {

/// CEM repairs whole windows; an online example asks for its newest
/// interval alone, which the server repairs through its own lane.
void require_whole_window(const ImputationExample& ex) {
  FMNET_CHECK(ex.output_from == 0,
              "+cem repairs whole windows, but this example has output_from " +
                  std::to_string(ex.output_from) +
                  " (an online window; serve::ServeCore repairs its newest "
                  "interval itself)");
}

}  // namespace

KnowledgeAugmentedImputer::KnowledgeAugmentedImputer(
    std::shared_ptr<Imputer> base, CemConfig cem_config,
    util::ThreadPool* pool)
    : base_(std::move(base)), cem_(cem_config), pool_(pool) {
  FMNET_CHECK(base_ != nullptr, "null base imputer");
}

std::vector<double> KnowledgeAugmentedImputer::impute(
    const ImputationExample& ex) {
  require_whole_window(ex);
  obs::ScopedSpan span("impute");
  return tally(
      cem_.correct(base_->impute(ex), ex.constraints, ex.qlen_scale, pool_));
}

std::vector<std::vector<double>> KnowledgeAugmentedImputer::impute_batch(
    const std::vector<ImputationExample>& batch) {
  obs::ScopedSpan span("impute_batch");
  return repair_batch(base_->impute_batch(batch), batch);
}

std::vector<std::vector<double>> KnowledgeAugmentedImputer::repair_batch(
    const std::vector<std::vector<double>>& base_outputs,
    const std::vector<ImputationExample>& batch) {
  FMNET_CHECK_EQ(base_outputs.size(), batch.size());
  for (const ImputationExample& ex : batch) require_whole_window(ex);
  // Windows repair concurrently; each correct() still fans its intervals
  // out on the same pool, recruiting only idle lanes.
  std::vector<CemResult> results = util::parallel_map<CemResult>(
      util::ThreadPool::resolve(pool_),
      static_cast<std::int64_t>(batch.size()), [&](std::int64_t i) {
        const auto w = static_cast<std::size_t>(i);
        return cem_.correct(base_outputs[w], batch[w].constraints,
                            batch[w].qlen_scale, pool_);
      });
  // Counters reduce in window order, exactly as the per-window loop adds.
  std::vector<std::vector<double>> out;
  out.reserve(batch.size());
  for (CemResult& r : results) out.push_back(tally(std::move(r)));
  return out;
}

std::vector<double> KnowledgeAugmentedImputer::tally(CemResult r) {
  total_cem_seconds_ += r.seconds;
  ++cem_calls_;
  if (!r.feasible) ++infeasible_;
  return std::move(r.corrected);
}

}  // namespace fmnet::impute
