#include "impute/window_buffer.h"

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
  window_.reserve(window_intervals);
}

bool WindowBuffer::push(const CoarseIntervalUpdate& update) {
  ++intervals_seen_;
  if (window_.size() == window_intervals_) window_.erase(window_.begin());
  window_.push_back(update);
  return ready();
}

ImputationExample WindowBuffer::make_example() const {
  ImputationExample ex;
  fill_example(ex);
  return ex;
}

void WindowBuffer::fill_example(ImputationExample& ex) const {
  FMNET_CHECK(ready(), "window not full yet");
  telemetry::build_example(window_, {}, factor_, qlen_scale_, count_scale_,
                           ex);
  ex.output_from = ex.window - factor_;
}

}  // namespace fmnet::impute
