// Real-time feasibility (paper §5: "making the system work under strict
// timing requirements would be particularly useful"): streams the campaign
// interval-by-interval through the full imputer and reports per-interval
// latency percentiles against the real-time budget (one coarse interval,
// i.e. 50 ms of wall clock per 50 ms of telemetry).
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "impute/knowledge_imputer.h"
#include "impute/streaming.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/stats.h"
#include "util/table.h"

using namespace fmnet;

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header(
      "Streaming imputation latency vs the 50 ms real-time budget");

  const core::Scenario s = bench::default_scenario(42, 5'000);
  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, campaign);

  const auto full = engine.fit_method(s, "transformer+kal+cem", data);

  // The wall clock is injected explicitly (the same seam serve_test and
  // fmnet_cli serve fill with a VirtualClock for deterministic latencies).
  const util::Clock& clk = util::Clock::wall();
  impute::StreamingImputer stream(
      full.imputer, /*window_intervals=*/6, data.dataset_config.factor,
      data.dataset_config.qlen_scale, data.dataset_config.count_scale, &clk);

  // Stream the busiest queue's telemetry.
  std::size_t busiest = 0;
  double mass = -1.0;
  for (std::size_t q = 0; q < data.coarse.max_qlen.size(); ++q) {
    if (data.coarse.max_qlen[q].sum() > mass) {
      mass = data.coarse.max_qlen[q].sum();
      busiest = q;
    }
  }
  const std::size_t port =
      busiest / static_cast<std::size_t>(
                    campaign.switch_config.queues_per_port);

  std::vector<double> latencies_ms;
  for (std::size_t k = 0; k < data.coarse.num_intervals(); ++k) {
    impute::CoarseIntervalUpdate u;
    u.periodic_qlen = data.coarse.periodic_qlen[busiest][k];
    u.max_qlen = data.coarse.max_qlen[busiest][k];
    u.port_sent = data.coarse.snmp_sent[port][k];
    u.port_dropped = data.coarse.snmp_dropped[port][k];
    const auto out = stream.push(u);
    if (out.ready) latencies_ms.push_back(out.latency_seconds * 1e3);
  }

  auto& reg = obs::Registry::global();
  reg.gauge("bench.streaming.single.p99_ms")
      .set(percentile(latencies_ms, 99));

  const double budget_ms =
      static_cast<double>(data.dataset_config.factor);  // 50 ms of telemetry
  Table table({"metric", "value (ms)"});
  table.add_row({"intervals streamed", std::to_string(latencies_ms.size())});
  table.add_row({"p50 latency", Table::fmt(percentile(latencies_ms, 50))});
  table.add_row({"p99 latency", Table::fmt(percentile(latencies_ms, 99))});
  table.add_row({"max latency", Table::fmt(percentile(latencies_ms, 100))});
  table.add_row({"real-time budget", Table::fmt(budget_ms)});
  table.print(std::cout);

  const bool realtime = percentile(latencies_ms, 99) < budget_ms;
  std::printf(
      "\nshape check — p99 per-interval imputation latency fits inside one "
      "coarse interval (real-time capable): %s\n",
      realtime ? "PASS" : "FAIL");
  std::printf(
      "(the paper's Z3-based CEM at 1.47 s per 50 ms would miss this "
      "budget by ~30x; the specialised exact repair makes the §5 real-time "
      "direction reachable.)\n");
  return 0;
}
