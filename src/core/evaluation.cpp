#include "core/evaluation.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "constraints/constraints.h"
#include "tasks/metrics.h"
#include "tasks/netcalc.h"
#include "util/check.h"
#include "util/table.h"

namespace fmnet::core {

Table1Evaluator::Table1Evaluator(const Campaign& campaign,
                                 const PreparedData& data,
                                 double burst_threshold_fraction,
                                 tasks::C4Config c4)
    : campaign_(campaign), data_(data) {
  FMNET_CHECK_GT(burst_threshold_fraction, 0.0);
  burst_threshold_ = burst_threshold_fraction *
                     static_cast<double>(campaign.switch_config.buffer_size);
  FMNET_CHECK(!data_.split.test.empty(), "no test examples");
  // Row j's reference: worst-case backlog over one imputation window. The
  // service rate is the port drain speed (one packet per slot) and the
  // horizon is the window length — fine steps are milliseconds.
  c4_bound_pkts_ = tasks::c4_backlog_bound(
      c4, static_cast<double>(campaign.switch_config.slots_per_ms),
      static_cast<double>(campaign.switch_config.buffer_size),
      static_cast<double>(data_.split.test.front().window));

  // Stitch ground truth over the test windows, per queue, in window order.
  const std::size_t queues = campaign_.gt.queue_len.size();
  truth_.resize(queues);
  for (const auto& ex : data_.split.test) {
    auto& dst = truth_[static_cast<std::size_t>(ex.queue)];
    for (std::size_t t = 0; t < ex.window; ++t) {
      dst.push_back(campaign_.gt.queue_len[ex.queue][ex.start_ms + t]);
    }
  }
}

Table1Row Table1Evaluator::evaluate(impute::Imputer& imputer) const {
  // One batched call, so imputers spread the test split over the pool.
  return score(imputer.name(), imputer.impute_batch(data_.split.test));
}

Table1Row Table1Evaluator::score(
    std::string method, const std::vector<std::vector<double>>& all) const {
  Table1Row row;
  row.method = std::move(method);

  constraints::Checker checker;
  const std::size_t queues = campaign_.gt.queue_len.size();
  std::vector<std::vector<double>> stitched(queues);

  // The reductions stay serial, in window order.
  FMNET_CHECK_EQ(all.size(), data_.split.test.size());
  for (std::size_t w = 0; w < all.size(); ++w) {
    const auto& ex = data_.split.test[w];
    const std::vector<double>& imputed = all[w];
    FMNET_CHECK_EQ(imputed.size(), ex.window);
    // Consistency in normalised units (constraint record units).
    std::vector<double> normalised(imputed.size());
    for (std::size_t t = 0; t < imputed.size(); ++t) {
      normalised[t] = imputed[t] / ex.qlen_scale;
    }
    checker.add(normalised, ex.constraints, c4_bound_pkts_ / ex.qlen_scale);
    auto& dst = stitched[static_cast<std::size_t>(ex.queue)];
    dst.insert(dst.end(), imputed.begin(), imputed.end());
  }
  row.max_constraint = checker.c1.error();
  row.periodic_constraint = checker.c2.error();
  row.sent_constraint = checker.c3.error();
  row.c4_backlog = checker.c4.error();

  // Burst tasks, averaged over queues that actually have bursts in truth.
  double det = 0.0;
  double height = 0.0;
  double freq = 0.0;
  double inter = 0.0;
  double empty = 0.0;
  std::size_t counted = 0;
  for (std::size_t q = 0; q < queues; ++q) {
    FMNET_CHECK_EQ(stitched[q].size(), truth_[q].size());
    const auto m =
        tasks::burst_metrics(truth_[q], stitched[q], burst_threshold_);
    // Queues with no truth bursts and no imputed bursts carry no signal
    // for rows d-g; they still count for row h (empty-queue frequency).
    const bool has_signal =
        !tasks::detect_bursts(truth_[q], burst_threshold_).empty();
    if (has_signal) {
      det += m.detection_error;
      height += m.height_error;
      freq += m.frequency_error;
      inter += m.interarrival_error;
      ++counted;
    }
    empty += m.empty_freq_error;
  }
  if (counted > 0) {
    row.burst_detection = det / static_cast<double>(counted);
    row.burst_height = height / static_cast<double>(counted);
    row.burst_frequency = freq / static_cast<double>(counted);
    row.burst_interarrival = inter / static_cast<double>(counted);
  }
  row.empty_queue_freq = empty / static_cast<double>(queues);
  row.concurrent_bursts =
      tasks::concurrent_burst_error(truth_, stitched, burst_threshold_);
  return row;
}

void print_table1(const std::vector<Table1Row>& rows, std::ostream& os) {
  std::vector<std::string> header{"Error Metric"};
  for (const auto& r : rows) header.push_back(r.method);
  fmnet::Table table(header);

  auto add = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& r : rows) {
      cells.push_back(fmnet::Table::fmt(getter(r), 3));
    }
    table.add_row(std::move(cells));
  };
  add("a. Max Constraint", [](const Table1Row& r) { return r.max_constraint; });
  add("b. Periodic Constraint",
      [](const Table1Row& r) { return r.periodic_constraint; });
  add("c. Sent pkts count Constraint",
      [](const Table1Row& r) { return r.sent_constraint; });
  add("d. Burst Detection",
      [](const Table1Row& r) { return r.burst_detection; });
  add("e. Burst Height", [](const Table1Row& r) { return r.burst_height; });
  add("f. Burst Frequency",
      [](const Table1Row& r) { return r.burst_frequency; });
  add("g. Burst Interarrival Time",
      [](const Table1Row& r) { return r.burst_interarrival; });
  add("h. Empty Queue Frequency",
      [](const Table1Row& r) { return r.empty_queue_freq; });
  add("i. Avg count of concurrent bursts",
      [](const Table1Row& r) { return r.concurrent_bursts; });
  add("j. C4 Backlog Bound", [](const Table1Row& r) { return r.c4_backlog; });
  table.print(os);
}

}  // namespace fmnet::core
