#include "telemetry/dataset.h"

#include <algorithm>

#include "util/check.h"

namespace fmnet::telemetry {

void build_example(std::span<const CoarseIntervalUpdate> reports,
                   std::span<const ReportValidity> validity,
                   std::size_t factor, double qlen_scale, double count_scale,
                   ImputationExample& ex) {
  FMNET_CHECK_GT(factor, 0u);
  FMNET_CHECK_GT(qlen_scale, 0.0);
  FMNET_CHECK_GT(count_scale, 0.0);
  FMNET_CHECK(validity.empty() || validity.size() == reports.size(),
              "report validity must be empty or one entry per interval");
  const std::size_t intervals = reports.size();
  ex.window = intervals * factor;
  ex.qlen_scale = qlen_scale;
  ex.count_scale = count_scale;
  ex.queue = 0;
  ex.port = 0;
  ex.start_ms = 0;
  ex.output_from = 0;
  ex.target.clear();
  // Every feature is written below.
  ex.features.resize(ex.window * kNumInputChannels);

  // Constraint data: normalised queue-length units for C1/C2, fine-step
  // count units for C3.
  auto& c = ex.constraints;
  c.coarse_factor = static_cast<std::int64_t>(factor);
  c.window_max.resize(intervals);
  c.port_sent.resize(intervals);
  c.sample_idx.clear();
  c.sample_val.clear();
  if (validity.empty()) {
    c.window_max_valid.clear();
  } else {
    c.window_max_valid.assign(intervals, 1);
  }
  for (std::size_t i = 0; i < intervals; ++i) {
    const CoarseIntervalUpdate& u = reports[i];
    const auto periodic = static_cast<float>(u.periodic_qlen / qlen_scale);
    const auto qmax = static_cast<float>(u.max_qlen / qlen_scale);
    const auto sent = static_cast<float>(u.port_sent / count_scale);
    const auto dropped = static_cast<float>(u.port_dropped / count_scale);
    for (std::size_t k = 0; k < factor; ++k) {
      float* row = ex.features.data() + (i * factor + k) * kNumInputChannels;
      row[kChannelPeriodicQlen] = periodic;
      row[kChannelMaxQlen] = qmax;
      row[kChannelPortSent] = sent;
      row[kChannelPortDropped] = dropped;
    }
    c.window_max[i] = qmax;
    c.port_sent[i] = static_cast<float>(
        std::min<double>(static_cast<double>(factor), u.port_sent));
    if (!validity.empty()) {
      // A lost LANZ report leaves a stale carry-forward, not a bound.
      if (!validity[i].lanz) c.window_max_valid[i] = 0;
      // The operator never received a periodic value to pin C2 to.
      if (!validity[i].periodic) continue;
    }
    // C2: the periodic sample lands on the first fine step of the interval.
    c.sample_idx.push_back(static_cast<std::int64_t>(i * factor));
    c.sample_val.push_back(periodic);
  }
  // tanh sharpness: one packet of queue (1/qlen_scale after normalisation)
  // should register as "non-empty".
  c.ne_tanh_scale = static_cast<float>(qlen_scale);
}

ImputationExample build_example(std::span<const CoarseIntervalUpdate> reports,
                                std::span<const ReportValidity> validity,
                                std::size_t factor, double qlen_scale,
                                double count_scale) {
  ImputationExample ex;
  build_example(reports, validity, factor, qlen_scale, count_scale, ex);
  return ex;
}

std::vector<ImputationExample> build_examples(
    const switchsim::GroundTruth& gt, const CoarseTelemetry& ct,
    const DatasetConfig& config, std::int32_t queues_per_port,
    const TelemetryQuality* quality) {
  FMNET_CHECK_GT(config.window_ms, 0u);
  FMNET_CHECK_GT(config.factor, 0u);
  FMNET_CHECK_EQ(config.window_ms % config.factor, 0u);
  FMNET_CHECK_GT(queues_per_port, 0);
  FMNET_CHECK_EQ(gt.num_ms() % config.factor, 0u);
  const bool masked = quality != nullptr && !quality->empty();
  if (masked) {
    FMNET_CHECK_EQ(quality->periodic_valid.size(), gt.queue_len.size());
    FMNET_CHECK_EQ(quality->lanz_valid.size(), gt.queue_len.size());
  }

  const std::size_t num_windows = gt.num_ms() / config.window_ms;
  const std::size_t wpi = config.window_ms / config.factor;  // intervals/win

  std::vector<ImputationExample> out;
  out.reserve(gt.queue_len.size() * num_windows);
  std::vector<CoarseIntervalUpdate> reports(wpi);
  std::vector<ReportValidity> validity(masked ? wpi : 0);
  for (std::size_t q = 0; q < gt.queue_len.size(); ++q) {
    const auto port = static_cast<std::int32_t>(
        static_cast<std::int32_t>(q) / queues_per_port);
    const auto pi = static_cast<std::size_t>(port);
    for (std::size_t w = 0; w < num_windows; ++w) {
      const std::size_t start = w * config.window_ms;
      for (std::size_t i = 0; i < wpi; ++i) {
        const std::size_t interval = start / config.factor + i;
        reports[i] = {ct.periodic_qlen[q][interval], ct.max_qlen[q][interval],
                      ct.snmp_sent[pi][interval],
                      ct.snmp_dropped[pi][interval]};
        if (masked) {
          validity[i] = {quality->periodic_valid[q][interval] != 0,
                         quality->lanz_valid[q][interval] != 0};
        }
      }
      ImputationExample ex =
          build_example(reports, validity, config.factor, config.qlen_scale,
                        config.count_scale);
      ex.queue = static_cast<std::int32_t>(q);
      ex.port = port;
      ex.start_ms = start;
      ex.target.resize(config.window_ms);
      for (std::size_t t = 0; t < config.window_ms; ++t) {
        ex.target[t] = static_cast<float>(gt.queue_len[q][start + t] /
                                          config.qlen_scale);
      }
      out.push_back(std::move(ex));
    }
  }
  return out;
}

DatasetSplit split_examples(std::vector<ImputationExample> examples) {
  DatasetSplit split;
  for (auto& ex : examples) {
    const std::size_t window_index = ex.start_ms / ex.window;
    if (window_index % 2 == 0) {
      split.train.push_back(std::move(ex));
    } else {
      split.test.push_back(std::move(ex));
    }
  }
  return split;
}

}  // namespace fmnet::telemetry
