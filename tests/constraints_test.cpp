// The constraint record's shape check: every malformation is rejected
// with a message naming the field, so a bad dataset artifact fails to
// parse (core/engine.cpp) instead of being indexed out of bounds later.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "constraints/constraints.h"
#include "util/check.h"

namespace fmnet::constraints {
namespace {

/// A well-formed record for a 2-interval, 8-step window.
ExampleConstraints valid_record() {
  ExampleConstraints c;
  c.coarse_factor = 4;
  c.window_max = {3.0f, 5.0f};
  c.port_sent = {4.0f, 2.0f};
  c.sample_idx = {0, 4};
  c.sample_val = {1.0f, 2.0f};
  return c;
}

/// The CheckError message `check_shape(t_len)` throws for the record
/// `mutate` produces, or "" if it passes.
std::string shape_error(const std::function<void(ExampleConstraints&)>& mutate,
                        std::int64_t t_len = 8) {
  ExampleConstraints c = valid_record();
  mutate(c);
  try {
    c.check_shape(t_len);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(ConstraintRecord, ShapeCheckReturnsIntervalCount) {
  EXPECT_EQ(valid_record().check_shape(8), 2);
  ExampleConstraints masked = valid_record();
  masked.window_max_valid = {1, 0};
  EXPECT_EQ(masked.check_shape(8), 2);
  EXPECT_TRUE(masked.c1_binds(0));
  EXPECT_FALSE(masked.c1_binds(1));
  EXPECT_TRUE(valid_record().c1_binds(1));  // no mask: every report arrived
}

TEST(ConstraintRecord, ShapeCheckNamesTheBadField) {
  const struct {
    const char* field;
    std::function<void(ExampleConstraints&)> mutate;
    std::int64_t t_len;
  } cases[] = {
      {"constraints.coarse_factor", [](auto& c) { c.coarse_factor = 0; }, 8},
      {"constraints.coarse_factor", [](auto&) {}, 7},
      {"constraints.window_max", [](auto& c) { c.window_max.pop_back(); }, 8},
      {"constraints.port_sent", [](auto& c) { c.port_sent.push_back(1); }, 8},
      {"constraints.window_max_valid",
       [](auto& c) { c.window_max_valid = {1, 1, 1}; }, 8},
      {"constraints.sample_val", [](auto& c) { c.sample_val.pop_back(); }, 8},
      {"constraints.sample_idx[1]", [](auto& c) { c.sample_idx[1] = 8; }, 8},
      {"constraints.sample_idx[0]", [](auto& c) { c.sample_idx[0] = -1; }, 8},
  };
  for (const auto& k : cases) {
    const std::string message = shape_error(k.mutate, k.t_len);
    EXPECT_NE(message.find(k.field), std::string::npos)
        << "expected a message naming " << k.field << ", got: " << message;
  }
  EXPECT_EQ(shape_error([](auto&) {}), "");
}

}  // namespace
}  // namespace fmnet::constraints
