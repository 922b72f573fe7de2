// Shared fixtures for integration-level tests: run a small deterministic
// switch campaign and return its ground truth.
#pragma once

#include <vector>

#include "constraints/constraints.h"
#include "switchsim/recorder.h"
#include "switchsim/switch.h"
#include "traffic/sources.h"

namespace fmnet::testing {

struct CampaignResult {
  switchsim::SwitchConfig config;
  switchsim::GroundTruth gt;
};

/// Simulates `total_ms` of the paper workload on a small switch. Slot rate
/// is kept low (10 slots/ms) so tests run fast; benches use the full 90.
inline CampaignResult run_small_campaign(std::uint64_t seed,
                                         std::int64_t total_ms,
                                         std::int32_t num_ports = 4,
                                         std::int32_t slots_per_ms = 10) {
  switchsim::SwitchConfig cfg;
  cfg.num_ports = num_ports;
  cfg.queues_per_port = 2;
  cfg.buffer_size = 200;
  cfg.alpha = {1.0, 0.5};
  cfg.slots_per_ms = slots_per_ms;

  switchsim::OutputQueuedSwitch sw(cfg);
  switchsim::GroundTruthRecorder rec(sw);
  auto src = traffic::make_paper_workload(num_ports, seed);
  std::vector<switchsim::Arrival> arrivals;
  const std::int64_t slots = total_ms * slots_per_ms;
  for (std::int64_t s = 0; s < slots; ++s) {
    arrivals.clear();
    src->generate(s, arrivals);
    sw.step(arrivals);
    rec.on_slot();
  }
  return {cfg, rec.finish()};
}

/// The C1–C3 checker run over one window.
inline constraints::Checker checked(const std::vector<double>& series,
                                    const constraints::ExampleConstraints& c) {
  constraints::Checker checker;
  checker.add(series, c);
  return checker;
}

}  // namespace fmnet::testing
