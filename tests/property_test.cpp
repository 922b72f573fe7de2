// Cross-cutting property tests: invariants that must hold across randomized
// inputs and parameter sweeps, spanning several modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "constraints/constraints.h"
#include "impute/cem.h"
#include "impute/fm_model.h"
#include "nn/attention.h"
#include "nn/kal.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "smt/model.h"
#include "smt/solver.h"
#include "switchsim/switch.h"
#include "tasks/metrics.h"
#include "tasks/netcalc.h"
#include "tensor/broadcast.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "traffic/sources.h"
#include "util/rng.h"

namespace fmnet {
namespace {

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Tensor broadcasting: sweep shape pairs and verify against a reference.
// ---------------------------------------------------------------------------

struct BroadcastCase {
  Shape a;
  Shape b;
};

// Prints a case as e.g. "a2x3_b1x3" ("scalar" for a rank-0 shape). CTest
// names each discovered case after this text, so it must not depend on
// where the shapes happen to live in memory.
void PrintTo(const BroadcastCase& c, std::ostream* os) {
  const auto dims = [os](const Shape& s) {
    if (s.empty()) *os << "scalar";
    for (std::size_t i = 0; i < s.size(); ++i) *os << (i ? "x" : "") << s[i];
  };
  *os << 'a';
  dims(c.a);
  *os << "_b";
  dims(c.b);
}

class BroadcastSweep : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastSweep, AddMatchesReferenceAndGradSums) {
  const auto& param = GetParam();
  Rng rng(99);
  Tensor a = Tensor::randn(param.a, rng, 1.0f, true);
  Tensor b = Tensor::randn(param.b, rng, 1.0f, true);
  const Tensor c = a + b;
  const Shape expect =
      tensor::detail::broadcast_shape(param.a, param.b);
  ASSERT_EQ(c.shape(), expect);

  // Reference: explicit index arithmetic, bit for bit.
  const auto sa = tensor::detail::aligned_strides(param.a, expect);
  const auto sb = tensor::detail::aligned_strides(param.b, expect);
  std::size_t n = 0;
  tensor::detail::for_each_bcast2(
      expect, sa, sb, [&](std::int64_t lin, std::int64_t ia, std::int64_t ib) {
        ASSERT_EQ(c.data()[lin], a.data()[ia] + b.data()[ib]);
        ++n;
      });
  ASSERT_EQ(static_cast<std::int64_t>(n), c.numel());

  // d(sum(c * w))/dc = w, so each operand element's gradient is the sum
  // of w over the output elements it feeds: summed here in the broadcast
  // iterator's order, which a repeated operand's gradient must keep to
  // the bit.
  const Tensor w = Tensor::randn(expect, rng);
  Tensor loss = tensor::sum(c * w);
  loss.backward();
  std::vector<float> ref_a(static_cast<std::size_t>(a.numel()), 0.0f);
  std::vector<float> ref_b(static_cast<std::size_t>(b.numel()), 0.0f);
  tensor::detail::for_each_bcast2(
      expect, sa, sb, [&](std::int64_t lin, std::int64_t ia, std::int64_t ib) {
        ref_a[static_cast<std::size_t>(ia)] += w.data()[lin];
        ref_b[static_cast<std::size_t>(ib)] += w.data()[lin];
      });
  EXPECT_EQ(a.grad(), ref_a);
  EXPECT_EQ(b.grad(), ref_b);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastSweep,
    ::testing::Values(BroadcastCase{{3}, {3}}, BroadcastCase{{2, 3}, {3}},
                      BroadcastCase{{2, 3}, {1, 3}},
                      BroadcastCase{{2, 1}, {1, 3}},
                      BroadcastCase{{4, 1, 3}, {2, 3}},
                      BroadcastCase{{2, 2, 2}, {}},
                      BroadcastCase{{1}, {5}},
                      BroadcastCase{{2, 3, 4}, {2, 3, 4}},
                      BroadcastCase{{2, 5, 4}, {5, 4}}));

// ---------------------------------------------------------------------------
// Attention is permutation-equivariant (no mask, positions added outside).
// ---------------------------------------------------------------------------

TEST(AttentionProperty, PermutationEquivariant) {
  Rng rng(7);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Rng data_rng(8);
  Tensor x = Tensor::randn({1, 5, 8}, data_rng);
  const Tensor y = attn.forward(x);

  // Swap tokens 1 and 3 in the input; outputs must swap accordingly.
  Tensor xs = Tensor::zeros({1, 5, 8});
  for (int t = 0; t < 5; ++t) {
    const int src = t == 1 ? 3 : (t == 3 ? 1 : t);
    for (int d = 0; d < 8; ++d) {
      xs.data()[t * 8 + d] = x.data()[src * 8 + d];
    }
  }
  const Tensor ys = attn.forward(xs);
  for (int t = 0; t < 5; ++t) {
    const int src = t == 1 ? 3 : (t == 3 ? 1 : t);
    for (int d = 0; d < 8; ++d) {
      EXPECT_NEAR(ys.data()[t * 8 + d], y.data()[src * 8 + d], 1e-4);
    }
  }
}

// ---------------------------------------------------------------------------
// EMD loss metric-ish properties.
// ---------------------------------------------------------------------------

TEST(EmdProperty, SymmetricAndNonNegative) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const Tensor a = Tensor::randn({1, 16}, rng);
    const Tensor b = Tensor::randn({1, 16}, rng);
    const float ab = nn::emd_loss(a, b).item();
    const float ba = nn::emd_loss(b, a).item();
    EXPECT_GE(ab, 0.0f);
    EXPECT_NEAR(ab, ba, 1e-5);
  }
}

TEST(EmdProperty, TriangleInequalityOnRandomSeries) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const Tensor a = Tensor::randn({1, 12}, rng);
    const Tensor b = Tensor::randn({1, 12}, rng);
    const Tensor c = Tensor::randn({1, 12}, rng);
    const float ab = nn::emd_loss(a, b).item();
    const float bc = nn::emd_loss(b, c).item();
    const float ac = nn::emd_loss(a, c).item();
    EXPECT_LE(ac, ab + bc + 1e-4f);
  }
}

// ---------------------------------------------------------------------------
// Switch: dynamic-threshold sweep — stationary single-queue occupancy obeys
// the DT fixed point len* ~ alpha/(1+alpha) * B.
// ---------------------------------------------------------------------------

class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, SingleQueueDtFixedPoint) {
  const double alpha = GetParam();
  switchsim::SwitchConfig cfg;
  cfg.num_ports = 2;
  cfg.queues_per_port = 2;
  cfg.buffer_size = 120;
  cfg.alpha = {alpha, alpha};
  cfg.slots_per_ms = 10;
  switchsim::OutputQueuedSwitch sw(cfg);
  // Saturate one queue.
  for (int s = 0; s < 2000; ++s) sw.step({{0, 0}, {0, 0}, {0, 0}});
  const double expected =
      alpha / (1.0 + alpha) * static_cast<double>(cfg.buffer_size);
  EXPECT_NEAR(static_cast<double>(sw.queue_len(0, 0)), expected,
              expected * 0.1 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

// ---------------------------------------------------------------------------
// Workload: offered load stays below aggregate capacity across port counts.
// ---------------------------------------------------------------------------

class PortsSweep : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(PortsSweep, PaperWorkloadLoadFactorSane) {
  const std::int32_t ports = GetParam();
  auto src = traffic::make_paper_workload(ports, 77);
  std::vector<switchsim::Arrival> out;
  const std::int64_t slots = 200'000;
  for (std::int64_t s = 0; s < slots; ++s) src->generate(s, out);
  const double load = static_cast<double>(out.size()) /
                      (static_cast<double>(slots) * ports);
  EXPECT_GT(load, 0.03);
  EXPECT_LT(load, 0.95);
  for (const auto& a : out) {
    ASSERT_GE(a.dst_port, 0);
    ASSERT_LT(a.dst_port, ports);
  }
}

INSTANTIATE_TEST_SUITE_P(Ports, PortsSweep, ::testing::Values(2, 4, 8, 16));

// ---------------------------------------------------------------------------
// CEM: objective monotonicity — tightening the sent budget can only raise
// the optimal correction cost.
// ---------------------------------------------------------------------------

TEST(CemProperty, ObjectiveMonotoneInSentBudget) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    constraints::ExampleConstraints c;  // packet units: qlen_scale 1
    c.coarse_factor = 8;
    c.window_max = {5};
    std::vector<double> imputed(8);
    for (auto& v : imputed) v = static_cast<double>(rng.uniform_int(0, 6));
    impute::ConstraintEnforcementModule cem;
    std::int64_t prev = -1;
    for (std::int64_t budget = 8; budget >= 0; --budget) {
      c.port_sent = {static_cast<float>(budget)};
      const auto r = cem.correct(imputed, c, 1.0);
      if (!r.feasible) continue;  // budget 0 with max>0 is infeasible
      if (prev >= 0) {
        EXPECT_GE(r.objective, prev)
            << "trial " << trial << " budget " << budget;
      }
      prev = r.objective;
    }
  }
}

TEST(CemProperty, ObjectiveInvariantToFeasiblePerturbationScale) {
  // Doubling every imputed value scales costs but never breaks
  // feasibility: the corrected output must still satisfy constraints.
  Rng rng(19);
  constraints::ExampleConstraints c;  // packet units: qlen_scale 1
  c.coarse_factor = 10;
  c.window_max = {7};
  c.port_sent = {5};
  c.sample_idx = {0};
  c.sample_val = {2};
  std::vector<double> imputed(10);
  for (auto& v : imputed) v = rng.uniform(0.0, 14.0);
  impute::ConstraintEnforcementModule cem;
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    std::vector<double> scaled(imputed);
    for (auto& v : scaled) v *= scale;
    const auto r = cem.correct(scaled, c, 1.0);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(fmnet::testing::checked(r.corrected, c).satisfied());
  }
}

// ---------------------------------------------------------------------------
// Constraint backends: KAL's penalty, the Table-1 checker and both CEM
// engines read one record the same way. The oracle is written from the
// C1–C3 definitions, not from the shared record code, so a bug there
// cannot make every backend agree on a wrong answer. Packet series are
// integers and qlen_scale is 1 or a power of two, so every record↔packet
// conversion is exact and "satisfied" means exactly zero violation.
// ---------------------------------------------------------------------------

/// One random window in packets, with the constraint data it is checked
/// against.
struct RandomWindow {
  std::int64_t factor = 0;
  double qlen_scale = 1.0;
  std::vector<std::int64_t> q;      // the series
  std::vector<std::int64_t> m_max;  // C1 per interval
  std::vector<std::uint8_t> lanz;   // empty = every LANZ report arrived
  std::vector<std::int64_t> m_out;  // C3 per interval, steps
  std::vector<std::pair<std::int64_t, std::int64_t>> samples;  // C2

  std::size_t intervals() const { return m_max.size(); }

  constraints::ExampleConstraints record() const {
    constraints::ExampleConstraints c;
    c.coarse_factor = factor;
    c.ne_tanh_scale = static_cast<float>(qlen_scale);
    c.window_max_valid = lanz;
    for (std::size_t i = 0; i < intervals(); ++i) {
      c.window_max.push_back(
          static_cast<float>(static_cast<double>(m_max[i]) / qlen_scale));
      c.port_sent.push_back(static_cast<float>(m_out[i]));
    }
    for (const auto& [t, v] : samples) {
      c.sample_idx.push_back(t);
      c.sample_val.push_back(
          static_cast<float>(static_cast<double>(v) / qlen_scale));
    }
    return c;
  }
};

struct OracleVerdict {
  bool c1 = true;
  bool c2 = true;
  bool c3 = true;
  bool all() const { return c1 && c2 && c3; }
};

/// C1–C3 of `series` (packets) straight from the definitions: C1 bounds
/// every step of an interval whose LANZ report arrived, C2 pins every
/// sampled step, C3 caps each interval's non-empty steps.
OracleVerdict oracle(const RandomWindow& w,
                     const std::vector<std::int64_t>& series) {
  OracleVerdict v;
  const auto f = static_cast<std::size_t>(w.factor);
  for (std::size_t i = 0; i < w.intervals(); ++i) {
    const bool report_arrived = w.lanz.empty() || w.lanz[i] == 1;
    std::int64_t nonempty = 0;
    for (std::size_t t = i * f; t < (i + 1) * f; ++t) {
      if (report_arrived && series[t] > w.m_max[i]) v.c1 = false;
      if (series[t] > 0) ++nonempty;
    }
    if (nonempty > w.m_out[i]) v.c3 = false;
  }
  for (const auto& [t, value] : w.samples) {
    if (series[static_cast<std::size_t>(t)] != value) v.c2 = false;
  }
  return v;
}

/// A window whose data is derived from its own series (so it holds), then
/// with `perturb` one bound, sample or budget nudged (so it may not).
/// Lost LANZ reports carry a stale maximum below the interval's peak.
RandomWindow random_window(Rng& rng, bool perturb) {
  RandomWindow w;
  const std::int64_t intervals = rng.uniform_int(1, 4);
  w.factor = rng.uniform_int(5, 20);
  w.qlen_scale = rng.bernoulli(0.5) ? 1.0 : 64.0;
  for (std::int64_t t = 0; t < intervals * w.factor; ++t) {
    w.q.push_back(rng.bernoulli(0.4) ? 0 : rng.uniform_int(1, 12));
  }
  const bool masked = rng.bernoulli(0.6);
  std::vector<std::int64_t> peak;
  for (std::int64_t i = 0; i < intervals; ++i) {
    std::int64_t top = 0;
    std::int64_t nonempty = 0;
    for (std::int64_t t = i * w.factor; t < (i + 1) * w.factor; ++t) {
      top = std::max(top, w.q[static_cast<std::size_t>(t)]);
      if (w.q[static_cast<std::size_t>(t)] > 0) ++nonempty;
    }
    peak.push_back(top);
    w.m_max.push_back(top + rng.uniform_int(0, 2));
    w.m_out.push_back(
        std::min(w.factor, nonempty + rng.uniform_int(0, 2)));
    if (masked) {
      const bool lost = rng.bernoulli(0.4);
      w.lanz.push_back(lost ? 0 : 1);
      if (lost) {
        w.m_max.back() = rng.uniform_int(0, std::max<std::int64_t>(0, top - 1));
      }
    }
  }
  for (std::int64_t t = 0; t < intervals * w.factor; ++t) {
    if (rng.bernoulli(0.15)) {
      w.samples.emplace_back(t, w.q[static_cast<std::size_t>(t)]);
    }
  }
  if (perturb) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, intervals - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        w.m_max[i] = std::max<std::int64_t>(0, peak[i] - rng.uniform_int(1, 3));
        break;
      case 1:
        if (w.samples.empty()) {
          w.samples.emplace_back(0, w.q[0]);
        }
        w.samples[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(w.samples.size()) - 1))]
            .second += rng.uniform_int(1, 3);
        break;
      default:
        w.m_out[i] = std::max<std::int64_t>(0, w.m_out[i] - rng.uniform_int(1, 3));
        break;
    }
  }
  return w;
}

TEST(ConstraintBackends, AgreeOnRandomRecords) {
  const impute::ConstraintEnforcementModule fast(
      impute::CemConfig{.engine = impute::CemEngine::kFastRepair});
  const impute::ConstraintEnforcementModule smt_engine(
      impute::CemConfig{.engine = impute::CemEngine::kSmtBranchAndBound});
  Rng rng(2024);
  int satisfied = 0;
  int violated = 0;
  int exempted = 0;  // satisfied only because a lost report does not bind
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const RandomWindow w = random_window(rng, trial % 2 == 1);
    const constraints::ExampleConstraints c = w.record();
    const OracleVerdict truth = oracle(w, w.q);
    ++(truth.all() ? satisfied : violated);
    if (truth.all() && !w.lanz.empty()) {
      RandomWindow unmasked = w;
      unmasked.lanz.clear();
      if (!oracle(unmasked, w.q).c1) ++exempted;
    }

    std::vector<double> packets;
    std::vector<double> normalised;
    std::vector<float> normalised_f;
    for (const std::int64_t v : w.q) {
      packets.push_back(static_cast<double>(v));
      normalised.push_back(static_cast<double>(v) / w.qlen_scale);
      normalised_f.push_back(static_cast<float>(normalised.back()));
    }

    // The checker reads zero exactly where the oracle holds.
    constraints::Checker checker;
    checker.add(normalised, c);
    EXPECT_EQ(truth.c1, checker.c1.violation == 0.0);
    EXPECT_EQ(truth.c2, checker.c2.violation == 0.0);
    EXPECT_EQ(truth.c3, checker.c3.violation == 0.0);
    EXPECT_EQ(truth.all(), checker.satisfied(0.0));

    // Both CEM engines leave a satisfying series untouched, and only one.
    for (const auto* cem : {&fast, &smt_engine}) {
      const impute::CemResult r = cem->correct(packets, c, w.qlen_scale);
      EXPECT_EQ(truth.all(), r.feasible && r.corrected == packets)
          << (cem == &fast ? "fast" : "smt");
    }

    // KAL: Φ vanishes exactly when C1 and C2 hold; C3 holding forces
    // Ψ = 0 (the tanh count is a lower bound, so not the converse).
    const tensor::Tensor pred = tensor::Tensor::from_vector(
        normalised_f, {static_cast<std::int64_t>(normalised_f.size())}, true);
    const nn::KalTerms terms = nn::kal_penalty(pred, c, 0.0f, 0.0f, 1.0f);
    EXPECT_EQ(truth.c1 && truth.c2, terms.phi == 0.0f) << terms.phi;
    if (truth.c3) {
      EXPECT_EQ(terms.psi, 0.0f);
    }

    // Repairing a real-valued input yields, when feasible, a series the
    // oracle accepts.
    std::vector<double> imputed;
    for (std::size_t t = 0; t < w.q.size(); ++t) {
      imputed.push_back(rng.uniform(-2.0, 15.0));
    }
    for (const auto* cem : {&fast, &smt_engine}) {
      const impute::CemResult r = cem->correct(imputed, c, w.qlen_scale);
      if (!r.feasible) continue;
      std::vector<std::int64_t> repaired;
      for (const double v : r.corrected) repaired.push_back(std::llround(v));
      EXPECT_TRUE(oracle(w, repaired).all())
          << (cem == &fast ? "fast" : "smt");
    }
  }
  EXPECT_GT(satisfied, 0);
  EXPECT_GT(violated, 0);
  EXPECT_GT(exempted, 0);
}

// ---------------------------------------------------------------------------
// FM model: any SAT imputation reproduces its measurements (checked on the
// extracted queue series), across random instances.
// ---------------------------------------------------------------------------

class FmRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FmRoundTrip, SolutionReproducesMeasurements) {
  impute::FmSwitchModelConfig cfg;
  cfg.num_queues = 2;
  cfg.buffer_size = 8;
  cfg.max_ingress_per_slot = 2;
  cfg.slots_per_interval = 4;
  impute::FmSwitchModel model(cfg);
  Rng rng(GetParam());
  std::vector<std::vector<std::int64_t>> arrivals(
      2, std::vector<std::int64_t>(8));
  for (auto& qa : arrivals) {
    for (auto& a : qa) a = rng.uniform_int(0, 2);
  }
  const auto m = model.measure(arrivals);
  smt::Budget budget;
  budget.max_seconds = 20.0;
  const auto r = model.impute(m, budget);
  ASSERT_EQ(r.status, smt::Status::kSat) << "seed " << GetParam();
  for (std::int32_t q = 0; q < 2; ++q) {
    for (std::size_t k = 0; k < m.num_intervals(); ++k) {
      std::int64_t mx = 0;
      for (std::size_t t = k * 4; t < (k + 1) * 4; ++t) {
        mx = std::max(mx, r.queue_len[q][t]);
      }
      ASSERT_EQ(mx, m.queue_max[q][k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmRoundTrip,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Metrics: identity imputation scores zero at every threshold.
// ---------------------------------------------------------------------------

class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, IdentityScoresZero) {
  Rng rng(23);
  std::vector<double> series(200);
  for (auto& v : series) {
    v = rng.bernoulli(0.2) ? rng.uniform(0.0, 50.0) : 0.0;
  }
  const auto m = tasks::burst_metrics(series, series, GetParam());
  EXPECT_EQ(m.detection_error, 0.0);
  EXPECT_EQ(m.height_error, 0.0);
  EXPECT_EQ(m.frequency_error, 0.0);
  EXPECT_EQ(m.interarrival_error, 0.0);
  EXPECT_EQ(m.empty_freq_error, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(1.0, 5.0, 20.0, 45.0));

// ---------------------------------------------------------------------------
// C4 backlog bound: analytic properties plus soundness against simulated
// ground truth — the bound must never undercut a backlog the recorded
// arrival process actually produced.
// ---------------------------------------------------------------------------

TEST(C4BoundProperty, MonotoneInBurstSize) {
  Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    const double service = rng.uniform(1.0, 15.0);
    const double buffer = rng.uniform(50.0, 500.0);
    const double horizon = rng.uniform(10.0, 400.0);
    tasks::C4Config lo;
    lo.arrival_rate = rng.uniform(0.0, 20.0);
    lo.latency_ms = rng.uniform(0.0, 5.0);
    tasks::C4Config hi = lo;
    lo.arrival_burst = rng.uniform(0.001, 100.0);
    hi.arrival_burst = lo.arrival_burst + rng.uniform(0.001, 100.0);
    EXPECT_LE(tasks::c4_backlog_bound(lo, service, buffer, horizon),
              tasks::c4_backlog_bound(hi, service, buffer, horizon))
        << "trial " << trial;
  }
}

/// Tightest token-bucket burst σ for a given sustained rate ρ over a
/// recorded per-ms arrival series: sup over intervals (s, t] of
/// A(s, t] − ρ·(t − s), evaluated at millisecond boundaries.
double fitted_burst(const std::vector<double>& arrivals_per_ms, double rate) {
  double sigma = 0.0;
  double min_slack = 0.0;  // min over s of A(0, s] − ρ·s (s = 0 included)
  double cum = 0.0;
  for (std::size_t t = 0; t < arrivals_per_ms.size(); ++t) {
    cum += arrivals_per_ms[t];
    const double slack = cum - rate * static_cast<double>(t + 1);
    sigma = std::max(sigma, slack - min_slack);
    min_slack = std::min(min_slack, slack);
  }
  return sigma;
}

TEST(C4BoundProperty, NeverBelowObservedMaxBacklog) {
  for (const std::uint64_t seed : {31u, 57u, 83u}) {
    const auto run = fmnet::testing::run_small_campaign(seed, 400);
    const auto& gt = run.gt;
    const double horizon = static_cast<double>(gt.num_ms());
    const double buffer = static_cast<double>(run.config.buffer_size);
    for (std::int32_t p = 0; p < run.config.num_ports; ++p) {
      // Worst backlog attributable to this port: the start-of-ms sum over
      // its queues, and each queue's within-ms (LANZ) maximum.
      double observed = 0.0;
      for (std::size_t t = 0; t < gt.num_ms(); ++t) {
        double port_sum = 0.0;
        for (std::int32_t j = 0; j < run.config.queues_per_port; ++j) {
          const auto q = static_cast<std::size_t>(
              p * run.config.queues_per_port + j);
          port_sum += gt.queue_len[q][t];
          observed = std::max(observed, gt.queue_len_max[q][t]);
        }
        observed = std::max(observed, port_sum);
      }
      // Fit a valid (σ, ρ) envelope to the recorded arrivals at two rates.
      // With R = 0 (assume nothing about service) the bound must still
      // dominate every backlog those arrivals can have produced, since
      // backlog at t never exceeds A(0, t] ≤ σ + ρ·H.
      const auto& recv = gt.port_received[static_cast<std::size_t>(p)];
      const double mean_rate = recv.mean();
      for (const double rate : {mean_rate, 1.5 * mean_rate + 0.1}) {
        tasks::C4Config c4;
        c4.arrival_rate = rate;
        c4.arrival_burst = fitted_burst(recv.values(), rate);
        c4.latency_ms = 0.0;
        const double bound = tasks::c4_backlog_bound(c4, 0.0, buffer, horizon);
        EXPECT_GE(bound + 1e-6, observed)
            << "seed " << seed << " port " << p << " rate " << rate;
      }
      // No envelope keys set: the bound collapses to the shared buffer
      // cap, which still dominates any physical occupancy.
      EXPECT_EQ(tasks::c4_backlog_bound({}, 0.0, buffer, horizon), buffer);
      EXPECT_GE(buffer, observed);
    }
  }
}

// ---------------------------------------------------------------------------
// smtlite: add_max agrees with brute force on random instances.
// ---------------------------------------------------------------------------

TEST(SmtProperty, AddMaxMatchesBruteForce) {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    smt::Model m;
    std::vector<smt::VarId> vars;
    std::vector<std::int64_t> fixed;
    for (int v = 0; v < 4; ++v) {
      const std::int64_t value = rng.uniform_int(0, 5);
      fixed.push_back(value);
      vars.push_back(m.new_int(0, 5));
      m.add_linear(smt::LinExpr(vars.back()), smt::Cmp::kEq, value);
    }
    const smt::VarId mx = m.add_max(vars);
    smt::Solver s(m);
    const auto r = s.solve();
    ASSERT_EQ(r.status, smt::Status::kSat);
    EXPECT_EQ(r.value(mx),
              *std::max_element(fixed.begin(), fixed.end()))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace fmnet
