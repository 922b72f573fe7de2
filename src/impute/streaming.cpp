#include "impute/streaming.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace fmnet::impute {

WindowBuffer::WindowBuffer(std::size_t window_intervals, std::size_t factor,
                           double qlen_scale, double count_scale)
    : window_intervals_(window_intervals),
      factor_(factor),
      qlen_scale_(qlen_scale),
      count_scale_(count_scale) {
  FMNET_CHECK_GT(window_intervals, 0u);
  FMNET_CHECK_GT(factor, 0u);
  FMNET_CHECK_GT(qlen_scale, 0.0);
  FMNET_CHECK_GT(count_scale, 0.0);
}

bool WindowBuffer::push(const CoarseIntervalUpdate& update) {
  ++intervals_seen_;
  window_.push_back(update);
  if (window_.size() > window_intervals_) window_.pop_front();
  return ready();
}

ImputationExample WindowBuffer::make_example() const {
  FMNET_CHECK(ready(), "window not full yet");
  ImputationExample ex;
  ex.window = window_intervals_ * factor_;
  ex.qlen_scale = qlen_scale_;
  ex.count_scale = count_scale_;
  ex.constraints.coarse_factor = static_cast<std::int64_t>(factor_);
  ex.features.resize(ex.window * telemetry::kNumInputChannels);
  ex.target.assign(ex.window, 0.0f);  // unknown online; never read
  for (std::size_t w = 0; w < window_intervals_; ++w) {
    const CoarseIntervalUpdate& u = window_[w];
    const auto periodic = static_cast<float>(u.periodic_qlen / qlen_scale_);
    const auto qmax = static_cast<float>(u.max_qlen / qlen_scale_);
    const auto sent = static_cast<float>(u.port_sent / count_scale_);
    const auto dropped = static_cast<float>(u.port_dropped / count_scale_);
    for (std::size_t k = 0; k < factor_; ++k) {
      float* row = ex.features.data() +
                   (w * factor_ + k) * telemetry::kNumInputChannels;
      row[telemetry::kChannelPeriodicQlen] = periodic;
      row[telemetry::kChannelMaxQlen] = qmax;
      row[telemetry::kChannelPortSent] = sent;
      row[telemetry::kChannelPortDropped] = dropped;
    }
    ex.constraints.window_max.push_back(qmax);
    ex.constraints.port_sent.push_back(static_cast<float>(
        std::min<double>(static_cast<double>(factor_), u.port_sent)));
    ex.constraints.sample_idx.push_back(
        static_cast<std::int64_t>(w * factor_));
    ex.constraints.sample_val.push_back(periodic);
  }
  ex.constraints.ne_tanh_scale = static_cast<float>(qlen_scale_);
  return ex;
}

StreamingImputer::StreamingImputer(std::shared_ptr<Imputer> base,
                                   std::size_t window_intervals,
                                   std::size_t factor, double qlen_scale,
                                   double count_scale,
                                   const util::Clock* clock)
    : base_(std::move(base)),
      buffer_(window_intervals, factor, qlen_scale, count_scale),
      clock_(clock) {
  FMNET_CHECK(base_ != nullptr, "null base imputer");
}

StreamingOutput StreamingImputer::push(const CoarseIntervalUpdate& update) {
  StreamingOutput out;
  if (!buffer_.push(update)) return out;

  const util::Clock& clk = util::Clock::resolve(clock_);
  const double t0 = clk.now();
  const ImputationExample ex = buffer_.make_example();
  const std::vector<double> full = base_->impute(ex);
  FMNET_CHECK_EQ(full.size(), ex.window);
  out.ready = true;
  out.fine.assign(
      full.end() - static_cast<std::ptrdiff_t>(buffer_.factor()),
      full.end());
  out.latency_seconds = clk.now() - t0;
  auto& reg = obs::Registry::global();
  static obs::Counter& intervals = reg.counter("streaming.intervals");
  // The real-time budget is one coarse interval (50 ms at paper scale) —
  // the histogram's bucket edges bracket it.
  static obs::Histogram& latency = reg.histogram(
      "streaming.latency_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  intervals.add(1);
  latency.record(out.latency_seconds * 1e3);
  return out;
}

}  // namespace fmnet::impute
