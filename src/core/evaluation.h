// Table-1 evaluation: runs an Imputer over the test split, stitches the
// imputed windows into per-queue series, and computes the error rows of
// the paper's Table 1 (consistency a–c, burst tasks d–g, queue health h,
// concurrent bursts i) plus the C4 network-calculus backlog-bound check
// (row j, tasks/netcalc.h).
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "impute/imputer.h"
#include "tasks/netcalc.h"

namespace fmnet::core {

/// One method's row set of Table 1 (all values are normalised errors;
/// lower is better).
struct Table1Row {
  std::string method;
  double max_constraint = 0.0;       // a
  double periodic_constraint = 0.0;  // b
  double sent_constraint = 0.0;      // c
  double burst_detection = 0.0;      // d
  double burst_height = 0.0;         // e
  double burst_frequency = 0.0;      // f
  double burst_interarrival = 0.0;   // g
  double empty_queue_freq = 0.0;     // h
  double concurrent_bursts = 0.0;    // i
  double c4_backlog = 0.0;           // j
};

class Table1Evaluator {
 public:
  /// `burst_threshold_fraction` scales the buffer size into the packet
  /// threshold used by burst detection on both truth and imputed series.
  /// The default (8% of the shared buffer) keeps detection meaningful for
  /// the incast bursts of the paper workload while staying above the
  /// noise floor of ML-imputed series.
  /// `c4` supplies the arrival-curve envelope for row j; the service rate,
  /// buffer cap and horizon come from the campaign's switch config and the
  /// window length. The default (no envelope) bounds backlog by the buffer
  /// size — sound for every scenario.
  Table1Evaluator(const Campaign& campaign, const PreparedData& data,
                  double burst_threshold_fraction = 0.08,
                  tasks::C4Config c4 = {});

  /// Imputes every test example with `imputer` (one impute_batch call over
  /// the test split — equal, by the Imputer contract, to the per-window
  /// impute() loop) and scores it: score(imputer.name(), outputs).
  Table1Row evaluate(impute::Imputer& imputer) const;

  /// Fills method `method`'s Table1Row from its imputations of the test
  /// split: outputs[i] is test example i's series in packets.
  Table1Row score(std::string method,
                  const std::vector<std::vector<double>>& outputs) const;

  double burst_threshold() const { return burst_threshold_; }

  /// The C4 worst-case backlog bound in packets (row j's reference value).
  double c4_bound_pkts() const { return c4_bound_pkts_; }

  /// The stitched ground-truth series of the test windows, per queue
  /// (packets) — exposed for figure benches.
  const std::vector<std::vector<double>>& truth_series() const {
    return truth_;
  }

 private:
  const Campaign& campaign_;
  const PreparedData& data_;
  double burst_threshold_;
  double c4_bound_pkts_ = 0.0;
  std::vector<std::vector<double>> truth_;  // [queue][stitched step]
};

/// Prints rows in the paper's Table 1 layout.
void print_table1(const std::vector<Table1Row>& rows, std::ostream& os);

}  // namespace fmnet::core
