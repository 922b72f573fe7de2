#include "constraints/constraints.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "util/check.h"

namespace fmnet::constraints {

namespace {

std::string length_message(const char* field, std::size_t got,
                           std::int64_t want) {
  std::ostringstream os;
  os << "constraints." << field << " has " << got << " entries, expected "
     << want;
  return os.str();
}

}  // namespace

std::int64_t ExampleConstraints::check_shape(std::int64_t t_len) const {
  FMNET_CHECK(coarse_factor > 0,
              "constraints.coarse_factor must be positive, got " +
                  std::to_string(coarse_factor));
  FMNET_CHECK(t_len >= 0 && t_len % coarse_factor == 0,
              "window of " + std::to_string(t_len) +
                  " steps is not a multiple of constraints.coarse_factor " +
                  std::to_string(coarse_factor));
  const std::int64_t intervals = t_len / coarse_factor;
  const auto check_len = [intervals](const char* field, std::size_t got) {
    FMNET_CHECK(static_cast<std::int64_t>(got) == intervals,
                length_message(field, got, intervals));
  };
  check_len("window_max", window_max.size());
  check_len("port_sent", port_sent.size());
  if (!window_max_valid.empty()) {
    check_len("window_max_valid", window_max_valid.size());
  }
  FMNET_CHECK(sample_val.size() == sample_idx.size(),
              length_message("sample_val", sample_val.size(),
                             static_cast<std::int64_t>(sample_idx.size())));
  for (std::size_t s = 0; s < sample_idx.size(); ++s) {
    FMNET_CHECK(sample_idx[s] >= 0 && sample_idx[s] < t_len,
                "constraints.sample_idx[" + std::to_string(s) + "] = " +
                    std::to_string(sample_idx[s]) + " is outside the " +
                    std::to_string(t_len) + "-step window");
  }
  return intervals;
}

void Checker::add(const std::vector<double>& series,
                  const ExampleConstraints& c,
                  std::optional<double> c4_bound) {
  const std::int64_t intervals =
      c.check_shape(static_cast<std::int64_t>(series.size()));
  if (c4_bound) FMNET_CHECK_GE(*c4_bound, 0.0);
  const std::int64_t factor = c.coarse_factor;
  for (std::int64_t w = 0; w < intervals; ++w) {
    double wmax = 0.0;
    std::int64_t ne = 0;
    for (std::int64_t t = w * factor; t < (w + 1) * factor; ++t) {
      const double q = series[static_cast<std::size_t>(t)];
      wmax = std::max(wmax, q);
      if (q > 0.0) ++ne;
    }
    const auto i = static_cast<std::size_t>(w);
    if (c.c1_binds(w)) {
      const auto m_max = static_cast<double>(c.window_max[i]);
      c1.violation += std::max(0.0, wmax - m_max);
      c1.norm += m_max;
      if (c4_bound) {
        c4.violation += std::max(0.0, wmax - *c4_bound);
        c4.norm += *c4_bound;
      }
    }
    const auto m_out = static_cast<double>(c.port_sent[i]);
    c3.violation += std::max(0.0, static_cast<double>(ne) - m_out);
    c3.norm += m_out;
  }
  for (std::size_t s = 0; s < c.sample_idx.size(); ++s) {
    const auto m_len = static_cast<double>(c.sample_val[s]);
    c2.violation +=
        std::abs(series[static_cast<std::size_t>(c.sample_idx[s])] - m_len);
    const auto interval =
        static_cast<std::size_t>(c.sample_idx[s] / factor);
    c2.norm += std::max(m_len, static_cast<double>(c.window_max[interval]));
  }
}

}  // namespace fmnet::constraints
