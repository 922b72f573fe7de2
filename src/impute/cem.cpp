#include "impute/cem.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/span.h"
#include "smt/solve_cache.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace fmnet::impute {

namespace {

// The cem.* accounting, once per repaired interval (correct_window).
struct CemMetrics {
  obs::Counter& windows;
  obs::Counter& infeasible;
  obs::Counter& packets_moved;
  obs::Histogram& window_ms;
  static CemMetrics& get() {
    auto& reg = obs::Registry::global();
    static CemMetrics m{
        reg.counter("cem.windows"), reg.counter("cem.infeasible_windows"),
        reg.counter("cem.packets_moved"),
        reg.histogram("cem.window_ms",
                      {0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000})};
    return m;
  }
  void tally(bool feasible, std::int64_t objective,
             const fmnet::Stopwatch& clock) {
    windows.add(1);
    if (feasible) {
      packets_moved.add(objective);
    } else {
      infeasible.add(1);
    }
    if (obs::enabled()) window_ms.record(clock.elapsed_ms());
  }
};

std::int64_t iabs(std::int64_t v) { return v < 0 ? -v : v; }

/// The C1 bound a repair enforces on the `factor` steps at `imputed`: the
/// reported maximum or, where the report was lost, a bound wide enough to
/// admit the rounded reference and every sampled value, so C1 never binds
/// there while the SMT variable domains stay finite.
std::int64_t repair_bound(const PacketInterval& interval,
                          const double* imputed) {
  if (interval.m_max) return *interval.m_max;
  std::int64_t hi = 0;
  for (std::size_t t = 0; t < interval.sample_at.size(); ++t) {
    hi = std::max(hi, std::max<std::int64_t>(0, std::llround(imputed[t])));
    hi = std::max(hi, interval.sample_at[t]);
  }
  return hi;
}

/// The infeasible-interval fallback: the input clamped to >= 0, so callers
/// still get a usable series.
void clamp_nonnegative(const double* imputed, std::size_t n, double* out) {
  for (std::size_t t = 0; t < n; ++t) out[t] = std::max(0.0, imputed[t]);
}

}  // namespace

PacketInterval packet_interval(const constraints::ExampleConstraints& c,
                               double qlen_scale, std::int64_t w) {
  FMNET_CHECK_GT(qlen_scale, 0.0);
  const std::int64_t factor = c.coarse_factor;
  const auto i = static_cast<std::size_t>(w);
  PacketInterval out;
  const std::int64_t reported =
      std::llround(static_cast<double>(c.window_max[i]) * qlen_scale);
  out.m_out = std::llround(static_cast<double>(c.port_sent[i]));
  FMNET_CHECK_GE(reported, 0);
  FMNET_CHECK_GE(out.m_out, 0);
  if (c.c1_binds(w)) out.m_max = reported;
  out.sample_at.assign(static_cast<std::size_t>(factor), -1);
  for (std::size_t s = 0; s < c.sample_idx.size(); ++s) {
    const std::int64_t rel = c.sample_idx[s] - w * factor;
    if (rel < 0 || rel >= factor) continue;
    out.sample_at[static_cast<std::size_t>(rel)] =
        std::llround(static_cast<double>(c.sample_val[s]) * qlen_scale);
  }
  return out;
}

ConstraintEnforcementModule::IntervalResult
ConstraintEnforcementModule::correct_interval_fast(
    const std::vector<double>& imputed, std::int64_t m_max,
    std::int64_t m_out, const std::vector<std::int64_t>& sample_at,
    std::int64_t factor) const {
  IntervalResult res;
  res.values.assign(static_cast<std::size_t>(factor), 0);

  // Integer reference: the rounded transformer output.
  std::vector<std::int64_t> ref(static_cast<std::size_t>(factor));
  for (std::int64_t t = 0; t < factor; ++t) {
    ref[t] = std::llround(imputed[static_cast<std::size_t>(t)]);
  }

  // Feasibility screens on the sampled (immutable) steps.
  std::int64_t forced_nonempty = 0;
  for (std::int64_t t = 0; t < factor; ++t) {
    const std::int64_t s = sample_at[static_cast<std::size_t>(t)];
    if (s < 0) continue;
    if (s > m_max) {
      res.feasible = false;
      return res;
    }
    if (s > 0) ++forced_nonempty;
  }
  if (forced_nonempty > m_out) {
    res.feasible = false;
    return res;
  }

  // Per-step optimum under C1/C2 alone: clamp into [0, m_max]. C1 is an
  // upper bound, so no step needs to be raised to attain m_max.
  std::vector<std::int64_t> base(static_cast<std::size_t>(factor));
  std::int64_t cost = 0;
  std::int64_t nonempty = forced_nonempty;
  // Optional non-empty steps (non-sampled, base > 0) with the cost delta
  // of zeroing them instead: (Δ, t).
  std::vector<std::pair<std::int64_t, std::int64_t>> zero_delta;
  for (std::int64_t t = 0; t < factor; ++t) {
    const std::int64_t s = sample_at[static_cast<std::size_t>(t)];
    if (s >= 0) {
      base[t] = s;
    } else {
      base[t] = std::clamp<std::int64_t>(ref[t], 0, m_max);
      cost += iabs(base[t] - ref[t]);
      if (base[t] > 0) {
        ++nonempty;
        zero_delta.emplace_back(iabs(ref[t]) - iabs(base[t] - ref[t]), t);
      }
    }
  }

  // C3: zero the cheapest optional steps until the non-empty count fits.
  // Always possible: forced_nonempty <= m_out was screened above.
  const std::int64_t need_zero =
      std::max<std::int64_t>(0, nonempty - m_out);
  std::sort(zero_delta.begin(), zero_delta.end());
  for (std::int64_t k = 0; k < need_zero; ++k) {
    base[zero_delta[static_cast<std::size_t>(k)].second] = 0;
    cost += zero_delta[static_cast<std::size_t>(k)].first;
  }
  res.values = std::move(base);
  res.objective = cost;
  return res;
}

ConstraintEnforcementModule::IntervalResult
ConstraintEnforcementModule::correct_interval_smt(
    const std::vector<double>& imputed, std::int64_t m_max,
    std::int64_t m_out, const std::vector<std::int64_t>& sample_at,
    std::int64_t factor) const {
  IntervalResult res;
  smt::Model model;
  std::vector<smt::VarId> q;
  q.reserve(static_cast<std::size_t>(factor));
  for (std::int64_t t = 0; t < factor; ++t) {
    // Appended, not `"q" + std::to_string(t)`: GCC 12 -Wrestrict
    // false-positives (PR105651) on operator+(const char*, std::string&&).
    std::string qname("q");
    qname += std::to_string(t);
    q.push_back(model.new_int(0, m_max, std::move(qname)));
  }
  // C2: sampled steps fixed.
  for (std::int64_t t = 0; t < factor; ++t) {
    const std::int64_t s = sample_at[static_cast<std::size_t>(t)];
    if (s >= 0) {
      if (s > m_max) {
        res.feasible = false;
        return res;
      }
      model.add_linear(smt::LinExpr(q[t]), smt::Cmp::kEq, s);
    }
  }
  // C1 (upper bound) is the variable domain [0, m_max] itself.
  // C3: Σ [q_t >= 1] <= m_out.
  smt::LinExpr ne;
  for (std::int64_t t = 0; t < factor; ++t) {
    const smt::VarId nz = model.new_bool();
    model.add_reified(nz, smt::LinExpr(q[t]), smt::Cmp::kGe, 1);
    ne.add_term(1, nz);
  }
  model.add_linear(ne, smt::Cmp::kLe, m_out);
  // Objective: Σ |q_t - ref_t| over non-sampled steps.
  smt::LinExpr objective;
  for (std::int64_t t = 0; t < factor; ++t) {
    if (sample_at[static_cast<std::size_t>(t)] >= 0) continue;
    const std::int64_t ref =
        std::llround(imputed[static_cast<std::size_t>(t)]);
    const std::int64_t hi = std::max(iabs(ref), iabs(m_max - ref));
    smt::LinExpr deviation(q[t]);
    deviation.add_constant(-ref);
    objective.add_term(1, model.add_abs(deviation, hi));
  }
  model.minimize(objective);

  // Warm start: seed the incumbent with the window's exact fast repair.
  smt::WarmStart warm;
  bool have_warm = false;
  if (config_.warm_start) {
    const IntervalResult cand =
        correct_interval_fast(imputed, m_max, m_out, sample_at, factor);
    if (cand.feasible) {
      warm.hints.reserve(static_cast<std::size_t>(factor));
      for (std::int64_t t = 0; t < factor; ++t) {
        warm.hints.emplace_back(q[static_cast<std::size_t>(t)],
                                cand.values[static_cast<std::size_t>(t)]);
      }
      have_warm = true;
    }
  }

  smt::RepairOptions ro;
  ro.budget = config_.smt_budget;
  ro.use_cache = config_.use_repair_cache;
  const smt::SolveResult r =
      smt::repair_minimize(model, ro, have_warm ? &warm : nullptr);
  if (!r.has_solution()) {
    res.feasible = false;
    return res;
  }
  res.objective = r.objective;
  res.values.resize(static_cast<std::size_t>(factor));
  for (std::int64_t t = 0; t < factor; ++t) {
    res.values[static_cast<std::size_t>(t)] = r.value(q[t]);
  }
  return res;
}

CemResult ConstraintEnforcementModule::correct(
    const std::vector<double>& imputed,
    const constraints::ExampleConstraints& c, double qlen_scale,
    util::ThreadPool* pool) const {
  obs::ScopedSpan span("correct");
  fmnet::Stopwatch clock;
  const std::int64_t factor = c.coarse_factor;
  const auto t_len = static_cast<std::int64_t>(imputed.size());
  const std::int64_t windows = c.check_shape(t_len);
  // Validate and convert serially so malformed records throw
  // deterministically, then repair the independent intervals concurrently
  // into per-interval slots and stitch in order.
  std::vector<PacketInterval> views;
  views.reserve(static_cast<std::size_t>(windows));
  for (std::int64_t w = 0; w < windows; ++w) {
    views.push_back(packet_interval(c, qlen_scale, w));
  }
  std::vector<CemResult> results(static_cast<std::size_t>(windows));
  util::ThreadPool::resolve(pool).parallel_for(
      0, windows, [&](std::int64_t w) {
        const auto begin = imputed.begin() + w * factor;
        results[static_cast<std::size_t>(w)] = correct_window(
            std::vector<double>(begin, begin + factor),
            views[static_cast<std::size_t>(w)]);
      });

  CemResult out;
  out.corrected.reserve(static_cast<std::size_t>(t_len));
  for (const CemResult& r : results) {
    out.corrected.insert(out.corrected.end(), r.corrected.begin(),
                         r.corrected.end());
    if (r.feasible) {
      out.objective += r.objective;
    } else {
      out.feasible = false;
    }
  }
  out.seconds = clock.elapsed_seconds();
  return out;
}

CemResult ConstraintEnforcementModule::correct_window(
    const std::vector<double>& imputed, const PacketInterval& interval) const {
  fmnet::Stopwatch clock;
  const auto factor = static_cast<std::int64_t>(interval.sample_at.size());
  FMNET_CHECK_GT(factor, 0);
  FMNET_CHECK_EQ(static_cast<std::int64_t>(imputed.size()), factor);
  if (interval.m_max) FMNET_CHECK_GE(*interval.m_max, 0);
  FMNET_CHECK_GE(interval.m_out, 0);

  const std::int64_t m_max = repair_bound(interval, imputed.data());
  const IntervalResult r =
      config_.engine == CemEngine::kFastRepair
          ? correct_interval_fast(imputed, m_max, interval.m_out,
                                  interval.sample_at, factor)
          : correct_interval_smt(imputed, m_max, interval.m_out,
                                 interval.sample_at, factor);
  CemResult out;
  out.corrected.resize(static_cast<std::size_t>(factor));
  out.feasible = r.feasible;
  if (r.feasible) {
    out.objective = r.objective;
    for (std::int64_t t = 0; t < factor; ++t) {
      out.corrected[static_cast<std::size_t>(t)] =
          static_cast<double>(r.values[static_cast<std::size_t>(t)]);
    }
  } else {
    clamp_nonnegative(imputed.data(), imputed.size(), out.corrected.data());
  }
  out.seconds = clock.elapsed_seconds();
  CemMetrics::get().tally(out.feasible, out.objective, clock);
  return out;
}

}  // namespace fmnet::impute
