// Downstream-task error metrics — rows d–i of Table 1.
//
// Rows a–c (consistency) and j (the C4 bound) measure how far an imputed
// series is from the coarse measurements and the backlog bound; they are
// constraints::Checker (constraints/constraints.h). Rows d–i measure
// burst-related analytics against ground truth. All errors are normalised
// so that 0 is perfect; ratios of means can exceed 1 (the paper reports
// 6.33 for IterImputer's inter-arrival error).
//
// Exact definitions used here (the paper does not spell out formulas):
//   d. burst detection:   1 − Jaccard(burst steps of truth, of imputed)
//   e. burst height:      mean over truth bursts of |h_imp − h_tr| / h_tr,
//                         using the overlapping imputed burst (missing → 1),
//                         capped at 1 per burst
//   f. burst frequency:   |#bursts_imp − #bursts_tr| / (#bursts_tr + ε)
//   g. burst inter-arrival: |mean_ia_imp − mean_ia_tr| / (mean_ia_tr + ε);
//                         when either side has < 2 bursts: 0 if both do,
//                         1 otherwise
//   h. empty-queue freq:  |f0_imp − f0_tr| / (f0_tr + ε)
//   i. concurrent bursts: |mean_cc_imp − mean_cc_tr| / (mean_cc_tr + ε),
//                         cc(t) = #queues bursting at step t
#pragma once

#include <vector>

#include "tasks/bursts.h"

namespace fmnet::tasks {

/// Rows d–h for one queue's stitched series.
struct BurstMetrics {
  double detection_error = 0.0;
  double height_error = 0.0;
  double frequency_error = 0.0;
  double interarrival_error = 0.0;
  double empty_freq_error = 0.0;
};

/// Computes rows d–h. `threshold` (packets) must be the same for truth and
/// imputed series; the benches derive it from the buffer size.
BurstMetrics burst_metrics(const std::vector<double>& truth,
                           const std::vector<double>& imputed,
                           double threshold);

/// Row i: mean over steps of the number of queues simultaneously bursting,
/// compared between truth and imputed; series indexed [queue][step].
double concurrent_burst_error(
    const std::vector<std::vector<double>>& truth_queues,
    const std::vector<std::vector<double>>& imputed_queues,
    double threshold);

}  // namespace fmnet::tasks
