#include "tasks/netcalc.h"

#include <algorithm>

#include "util/check.h"

namespace fmnet::tasks {

double c4_backlog_bound(const C4Config& config,
                        double service_rate_pkts_per_ms,
                        double buffer_cap_pkts, double horizon_ms) {
  FMNET_CHECK_GE(config.arrival_burst, 0.0);
  FMNET_CHECK_GE(config.arrival_rate, 0.0);
  FMNET_CHECK_GE(config.latency_ms, 0.0);
  FMNET_CHECK_GE(service_rate_pkts_per_ms, 0.0);
  FMNET_CHECK_GE(buffer_cap_pkts, 0.0);
  FMNET_CHECK_GE(horizon_ms, 0.0);
  // No envelope configured: the only admissible worst case is a full
  // buffer, which is always a sound bound (occupancy is physically capped).
  if (config.arrival_burst <= 0.0 && config.arrival_rate <= 0.0) {
    return buffer_cap_pkts;
  }
  // sup_t (α(t) − β(t)) with α(t) = σ + ρt, β(t) = R·[t−T]⁺ over [0, H]:
  // the vertical deviation at t = T plus, if ρ exceeds R, the residual
  // growth (ρ − R) over the remaining horizon.
  const double at_latency =
      config.arrival_burst + config.arrival_rate * config.latency_ms;
  const double excess_rate =
      std::max(0.0, config.arrival_rate - service_rate_pkts_per_ms);
  const double residual =
      excess_rate * std::max(0.0, horizon_ms - config.latency_ms);
  return std::min(buffer_cap_pkts, at_latency + residual);
}

}  // namespace fmnet::tasks
