// Assembly of (coarse telemetry -> fine queue length) training/eval
// examples, following the paper's Fig. 3 pipeline: the coarse series T_s
// are expanded to per-fine-step input channels, the target is the fine
// queue-length series T_r, and the constraint data (m_max, m_len, m_out)
// rides along for KAL and CEM.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "constraints/constraints.h"
#include "switchsim/recorder.h"
#include "telemetry/monitors.h"

namespace fmnet::telemetry {

/// Layout of the per-time-step input channels fed to the transformer.
/// All channels are hold-upsampled coarse series.
enum InputChannel : std::size_t {
  kChannelPeriodicQlen = 0,  // sampled instantaneous length (normalised)
  kChannelMaxQlen = 1,       // LANZ interval max (normalised)
  kChannelPortSent = 2,      // SNMP packets sent (normalised)
  kChannelPortDropped = 3,   // SNMP packets dropped (normalised)
  kNumInputChannels = 4,
};

/// One (queue, window) example.
struct ImputationExample {
  /// Row-major [T][kNumInputChannels] features.
  std::vector<float> features;
  /// [T] fine-grained queue length (normalised by qlen_scale); empty for
  /// an online window, which has no ground truth.
  std::vector<float> target;
  /// Constraint data in the same normalised units (see DatasetConfig).
  constraints::ExampleConstraints constraints;

  std::int32_t queue = 0;     // flat queue index
  std::int32_t port = 0;      // owning port
  std::size_t start_ms = 0;   // window position in the campaign
  std::size_t window = 0;     // window length T (fine steps)
  /// First fine step an imputer returns: every Imputer imputes steps
  /// [output_from, window) and nothing else. 0 (the whole window) for
  /// every offline example; an online window (impute::WindowBuffer) sets
  /// window − factor, its newest interval, the one a server publishes. The
  /// earlier intervals are context only. Not serialized.
  std::size_t output_from = 0;
  /// Normalisation divisors copied from DatasetConfig, so imputers can
  /// convert between normalised units and packets.
  double qlen_scale = 1.0;
  double count_scale = 1.0;
};

/// Windowing / normalisation parameters.
struct DatasetConfig {
  /// Fine steps per window (paper: 300 ms windows).
  std::size_t window_ms = 300;
  /// Fine steps per coarse interval (paper: 50).
  std::size_t factor = 50;
  /// Queue lengths are divided by this (typically the shared buffer size).
  double qlen_scale = 1000.0;
  /// Counter channels are divided by this (typically slots per interval,
  /// i.e. the max packets a port can send per interval).
  double count_scale = 4500.0;
};

/// One coarse interval of one queue's telemetry: the reports a collector
/// holds once the interval closes.
struct CoarseIntervalUpdate {
  double periodic_qlen = 0.0;  // packets
  double max_qlen = 0.0;       // packets
  double port_sent = 0.0;      // packets
  double port_dropped = 0.0;   // packets
};

/// Which of one interval's reports survived fault injection.
struct ReportValidity {
  bool periodic = true;
  bool lanz = true;
};

/// The one example builder, shared by the offline dataset and the online
/// window buffer (impute::WindowBuffer): the features and constraint record
/// of a window from its per-interval reports, oldest first. Every interval
/// contributes `factor` hold-upsampled feature rows, its LANZ max (C1), its
/// port budget (C3) and a periodic sample on its first fine step (C2).
/// C3's m_out is stored in *step count* units: min(factor, packets sent),
/// because a non-empty fine step implies at least one departure in that
/// step (work conservation), so #non-empty steps can never exceed packets
/// sent and is trivially capped by the interval length.
///
/// `validity` is empty for clean telemetry, else one entry per interval: a
/// dropped periodic report emits no C2 equality, and a lost LANZ report
/// clears the interval's constraints.window_max_valid bit (see
/// constraints::ExampleConstraints::c1_binds). The target is left empty:
/// an online window has no ground truth and no imputer reads it. Target,
/// queue, port, start_ms and output_from (0 here) are left to the caller.
///
/// Fills `ex` in place: every field is set as on a fresh example, and the
/// vectors keep their capacity, so a caller that refills one example per
/// window (serve::Session) allocates nothing once it is warm.
void build_example(std::span<const CoarseIntervalUpdate> reports,
                   std::span<const ReportValidity> validity,
                   std::size_t factor, double qlen_scale, double count_scale,
                   ImputationExample& ex);

/// build_example into a fresh example.
ImputationExample build_example(std::span<const CoarseIntervalUpdate> reports,
                                std::span<const ReportValidity> validity,
                                std::size_t factor, double qlen_scale,
                                double count_scale);

/// Cuts non-overlapping windows across every queue through build_example
/// and fills each target from ground truth.
///
/// `quality` (null = clean telemetry) marks which coarse reports survived
/// fault injection. With a null quality, the produced examples are byte-
/// identical to the pre-fault pipeline.
std::vector<ImputationExample> build_examples(
    const switchsim::GroundTruth& gt, const CoarseTelemetry& ct,
    const DatasetConfig& config, std::int32_t queues_per_port,
    const TelemetryQuality* quality = nullptr);

/// Splits examples into train/test by window parity (even windows train,
/// odd test) so both splits cover the whole campaign and all queues.
struct DatasetSplit {
  std::vector<ImputationExample> train;
  std::vector<ImputationExample> test;
};
DatasetSplit split_examples(std::vector<ImputationExample> examples);

}  // namespace fmnet::telemetry
