// Reproduces the §2.3 scalability claim: "Z3 successfully generated imputed
// queue lengths for simple scenarios in a few minutes, but could not handle
// more realistic scenarios in even 24 hours" — the per-time-step FM model's
// search space explodes with the horizon because indistinguishable
// interleavings multiply.
//
// We sweep the horizon of the per-slot switch model, recording solve time
// and search size under a budget, and contrast it with CEM on the
// equivalent window — the paper's motivation for the hybrid design.
#include <cstdio>

#include "bench_common.h"
#include "impute/cem.h"
#include "impute/fm_model.h"
#include "util/rng.h"
#include "util/table.h"

#include <iostream>

using namespace fmnet;

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header(
      "FM-alone scalability (paper §2.3) vs CEM on the same window");

  const double budget_seconds = fast_mode() ? 5.0 : 60.0;
  impute::FmSwitchModelConfig cfg;
  cfg.num_queues = 2;
  cfg.buffer_size = 16;
  cfg.max_ingress_per_slot = 3;

  Table table({"horizon (slots)", "status", "solve time (s)", "decisions",
               "CEM time (s) same horizon"});

  const std::vector<std::int64_t> horizons =
      fast_mode() ? std::vector<std::int64_t>{8, 16, 24}
                  : std::vector<std::int64_t>{8, 16, 24, 32, 48, 64, 96};
  bool hit_wall = false;
  for (const std::int64_t horizon : horizons) {
    cfg.slots_per_interval = horizon / 2;  // two intervals per instance
    impute::FmSwitchModel model(cfg);

    // Ground-truth arrival schedule with a fan-in burst, so the instance
    // is non-trivially constrained.
    fmnet::Rng rng(1234 + static_cast<std::uint64_t>(horizon));
    std::vector<std::vector<std::int64_t>> arrivals(
        2, std::vector<std::int64_t>(static_cast<std::size_t>(horizon), 0));
    for (std::int64_t t = 0; t < horizon; ++t) {
      arrivals[0][t] = rng.uniform_int(0, 3);
      arrivals[1][t] = rng.bernoulli(0.3) ? 1 : 0;
    }
    const auto m = model.measure(arrivals);

    smt::Budget budget;
    budget.max_seconds = budget_seconds;
    const auto r = model.impute(m, budget);
    const char* status = r.status == smt::Status::kSat       ? "SAT"
                         : r.status == smt::Status::kUnsat   ? "UNSAT"
                         : r.status == smt::Status::kUnknown ? "TIMEOUT"
                                                             : "?";
    hit_wall = hit_wall || r.status == smt::Status::kUnknown;

    // CEM on the "same" amount of telemetry: a window with the same number
    // of intervals and fine steps, from the measured trace.
    // Packet units throughout: qlen_scale 1.
    constraints::ExampleConstraints cc;
    cc.coarse_factor = cfg.slots_per_interval;
    for (std::size_t k = 0; k < m.num_intervals(); ++k) {
      cc.window_max.push_back(static_cast<float>(m.queue_max[0][k]));
      cc.port_sent.push_back(static_cast<float>(
          std::min<std::int64_t>(cfg.slots_per_interval, m.sent[k])));
      cc.sample_idx.push_back(static_cast<std::int64_t>(k) *
                              cfg.slots_per_interval);
      cc.sample_val.push_back(static_cast<float>(m.queue_sample[0][k]));
    }
    std::vector<double> rough(static_cast<std::size_t>(horizon), 1.0);
    impute::ConstraintEnforcementModule cem;
    const auto cem_r = cem.correct(rough, cc, 1.0);

    table.add_row({std::to_string(horizon), status,
                   Table::fmt(r.seconds, 3), std::to_string(r.decisions),
                   Table::fmt(cem_r.seconds, 6)});
  }
  table.print(std::cout);
  std::printf(
      "\nshape check — FM-alone hits the %.0fs budget while CEM stays "
      "sub-millisecond: %s\n",
      budget_seconds, hit_wall ? "PASS" : "(instance solved within budget; "
                                          "increase horizon for the wall)");
  return 0;
}
