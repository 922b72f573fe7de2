// Gradient correctness: every differentiable op is validated against
// central-difference numerical gradients on randomized inputs (TEST_P
// sweeps), plus targeted analytic cases.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <string>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fmnet::tensor {
namespace {

// Builds a scalar loss from `inputs` via `fn` and checks autograd gradients
// of every input against central differences.
void check_gradients(std::vector<Tensor> inputs,
                     const std::function<Tensor(const std::vector<Tensor>&)>&
                         fn,
                     float eps = 1e-3f, float tol = 2e-2f) {
  Tensor loss = fn(inputs);
  ASSERT_EQ(loss.numel(), 1);
  loss.backward();

  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const auto analytic = inputs[t].grad();
    for (std::size_t i = 0; i < inputs[t].data().size(); ++i) {
      const float saved = inputs[t].data()[i];
      inputs[t].data()[i] = saved + eps;
      const float up = fn(inputs).item();
      inputs[t].data()[i] = saved - eps;
      const float down = fn(inputs).item();
      inputs[t].data()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic[i], numeric, tol)
          << "input " << t << " element " << i;
    }
  }
}

Tensor rand_input(const Shape& shape, fmnet::Rng& rng) {
  return Tensor::randn(shape, rng, 1.0f, /*requires_grad=*/true);
}

TEST(Autograd, AddBackward) {
  fmnet::Rng rng(1);
  check_gradients({rand_input({2, 3}, rng), rand_input({2, 3}, rng)},
                  [](const auto& in) { return sum(in[0] + in[1]); });
}

TEST(Autograd, BroadcastAddReducesGrad) {
  const Tensor a = Tensor::ones({2, 3}, true);
  const Tensor b = Tensor::ones({3}, true);
  Tensor loss = sum(a + b);
  loss.backward();
  // Each element of b feeds 2 output elements.
  for (const float g : b.grad()) EXPECT_EQ(g, 2.0f);
  for (const float g : a.grad()) EXPECT_EQ(g, 1.0f);
}

TEST(Autograd, MulBackwardBroadcast) {
  fmnet::Rng rng(2);
  check_gradients({rand_input({2, 3}, rng), rand_input({3}, rng)},
                  [](const auto& in) { return sum(in[0] * in[1]); });
}

TEST(Autograd, DivBackward) {
  fmnet::Rng rng(3);
  Tensor a = rand_input({4}, rng);
  Tensor b =
      Tensor::from_vector({1.5f, 2.0f, -1.5f, 3.0f}, {4}, true);
  check_gradients({a, b},
                  [](const auto& in) { return sum(in[0] / in[1]); });
}

TEST(Autograd, MatmulBackward2D) {
  fmnet::Rng rng(4);
  check_gradients({rand_input({2, 3}, rng), rand_input({3, 4}, rng)},
                  [](const auto& in) {
                    return sum(square(matmul(in[0], in[1])));
                  });
}

TEST(Autograd, MatmulBackwardBatchedSharedRhs) {
  fmnet::Rng rng(5);
  check_gradients({rand_input({2, 2, 3}, rng), rand_input({3, 2}, rng)},
                  [](const auto& in) {
                    return sum(square(matmul(in[0], in[1])));
                  });
}

TEST(Autograd, MatmulBackwardFullyBatched) {
  fmnet::Rng rng(6);
  check_gradients({rand_input({2, 2, 3}, rng), rand_input({2, 3, 2}, rng)},
                  [](const auto& in) {
                    return sum(square(matmul(in[0], in[1])));
                  });
}

TEST(Autograd, SoftmaxBackward) {
  fmnet::Rng rng(7);
  check_gradients({rand_input({2, 5}, rng)}, [](const auto& in) {
    const Tensor s = softmax(in[0], 1);
    const Tensor w = Tensor::from_vector({1, 2, 3, 4, 5}, {5});
    return sum(s * w);
  });
}

TEST(Autograd, CumsumBackward) {
  fmnet::Rng rng(8);
  check_gradients({rand_input({6}, rng)}, [](const auto& in) {
    const Tensor w = Tensor::from_vector({1, -1, 2, 0.5f, 1, -2}, {6});
    return sum(cumsum(in[0], 0) * w);
  });
}

TEST(Autograd, SumAxisBackward) {
  fmnet::Rng rng(9);
  check_gradients({rand_input({3, 4}, rng)}, [](const auto& in) {
    const Tensor s = sum(in[0], 1, true);
    return sum(square(s));
  });
}

TEST(Autograd, MeanAxisBackward) {
  fmnet::Rng rng(10);
  check_gradients({rand_input({3, 4}, rng)}, [](const auto& in) {
    return sum(square(mean(in[0], 0, false)));
  });
}

TEST(Autograd, MaxAxisRoutesToArgmax) {
  const Tensor a = Tensor::from_vector({1, 5, 3, 2}, {4}, true);
  Tensor loss = sum(max(a, 0, false));
  loss.backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{0, 1, 0, 0}));
}

TEST(Autograd, MaxAllBackward) {
  const Tensor a = Tensor::from_vector({1, 5, 3, 2}, {2, 2}, true);
  Tensor loss = max_all(a);
  loss.backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{0, 1, 0, 0}));
}

TEST(Autograd, TransposeBackward) {
  fmnet::Rng rng(11);
  check_gradients({rand_input({2, 3, 2}, rng)}, [](const auto& in) {
    return sum(square(transpose(in[0], 0, 2)));
  });
}

TEST(Autograd, SliceBackwardOnlyTouchesRange) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, {4}, true);
  Tensor loss = sum(slice(a, 0, 1, 3));
  loss.backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{0, 1, 1, 0}));
}

TEST(Autograd, CatBackwardSplitsGrad) {
  const Tensor a = Tensor::ones({2}, true);
  const Tensor b = Tensor::ones({3}, true);
  Tensor loss = sum(mul_scalar(cat({a, b}, 0), 2.0f));
  loss.backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{2, 2}));
  EXPECT_EQ(b.grad(), (std::vector<float>{2, 2, 2}));
}

TEST(Autograd, ReshapeBackward) {
  fmnet::Rng rng(12);
  check_gradients({rand_input({2, 6}, rng)}, [](const auto& in) {
    return sum(square(reshape(in[0], {3, 4})));
  });
}

TEST(Autograd, DiamondGraphAccumulates) {
  // loss = sum(a*a + a) — a used twice; grads must accumulate once each.
  const Tensor a = Tensor::from_vector({2, 3}, {2}, true);
  Tensor loss = sum(a * a + a);
  loss.backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{5, 7}));
}

TEST(Autograd, RepeatedBackwardZeroesInteriorGrads) {
  // Backpropagating twice through a shared interior node must not reuse
  // its stale gradient buffer (which would double-count every pass).
  // Leaves accumulate across calls, as in torch: 2 + 2 = 4.
  const Tensor a = Tensor::from_vector({1, 2}, {2}, true);
  const Tensor b = mul_scalar(a, 2.0f);
  sum(b).backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{2, 2}));
  sum(b).backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{4, 4}));
}

TEST(Autograd, ChainedGraphReleasedAfterBackward) {
  const Tensor a = Tensor::ones({4}, true);
  Tensor x = a;
  for (int i = 0; i < 50; ++i) x = add_scalar(x, 1.0f);
  Tensor loss = sum(x);
  loss.backward();
  for (const float g : a.grad()) EXPECT_EQ(g, 1.0f);
}

TEST(Autograd, MinimumMaximumBackward) {
  fmnet::Rng rng(42);
  // Keep operands apart so the kink at equality is never sampled.
  std::vector<float> av(6);
  std::vector<float> bv(6);
  for (std::size_t i = 0; i < 6; ++i) {
    av[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    bv[i] = av[i] + (rng.bernoulli(0.5) ? 0.7f : -0.7f);
  }
  Tensor a = Tensor::from_vector(av, {6}, true);
  Tensor b = Tensor::from_vector(bv, {6}, true);
  check_gradients({a, b}, [](const auto& in) {
    return sum(minimum(in[0], in[1]) + mul_scalar(maximum(in[0], in[1]),
                                                  2.0f));
  });
}

TEST(Autograd, MinimumMaximumForward) {
  const Tensor a = Tensor::from_vector({1, 5}, {2});
  const Tensor b = Tensor::from_vector({3, 2}, {2});
  EXPECT_EQ(minimum(a, b).data(), (std::vector<float>{1, 2}));
  EXPECT_EQ(maximum(a, b).data(), (std::vector<float>{3, 5}));
}

TEST(Autograd, ClampBackwardZeroOutsideRange) {
  const Tensor a = Tensor::from_vector({-2, 0.5f, 3}, {3}, true);
  Tensor loss = sum(clamp(a, 0.0f, 1.0f));
  loss.backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{0, 1, 0}));
  EXPECT_EQ(clamp(a, 0.0f, 1.0f).data(), (std::vector<float>{0, 0.5f, 1}));
}

struct UnaryCase {
  std::string name;
  std::function<Tensor(const Tensor&)> op;
  // input sampler: keeps inputs inside the op's valid/stable domain
  std::function<float(fmnet::Rng&)> sample;
};

// Prints a case as its op name. CTest names each discovered case after this
// text (e.g. .../exp), so it must not depend on where the case's string and
// functions happen to live in memory.
void PrintTo(const UnaryCase& c, std::ostream* os) { *os << c.name; }

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesNumericGradient) {
  const UnaryCase& c = GetParam();
  fmnet::Rng rng(123);
  std::vector<float> vals(12);
  for (auto& v : vals) v = c.sample(rng);
  Tensor a = Tensor::from_vector(vals, {3, 4}, true);
  check_gradients({a},
                  [&](const auto& in) { return sum(c.op(in[0])); });
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"exp", [](const Tensor& x) { return exp(x); },
                  [](fmnet::Rng& r) {
                    return static_cast<float>(r.uniform(-1.0, 1.0));
                  }},
        UnaryCase{"log", [](const Tensor& x) { return log(x); },
                  [](fmnet::Rng& r) {
                    return static_cast<float>(r.uniform(0.5, 3.0));
                  }},
        UnaryCase{"sqrt", [](const Tensor& x) { return sqrt(x); },
                  [](fmnet::Rng& r) {
                    return static_cast<float>(r.uniform(0.5, 4.0));
                  }},
        UnaryCase{"abs", [](const Tensor& x) { return abs(x); },
                  [](fmnet::Rng& r) {
                    // keep away from the kink at 0
                    const double v = r.uniform(0.2, 2.0);
                    return static_cast<float>(r.bernoulli(0.5) ? v : -v);
                  }},
        UnaryCase{"tanh", [](const Tensor& x) { return tanh(x); },
                  [](fmnet::Rng& r) {
                    return static_cast<float>(r.uniform(-2.0, 2.0));
                  }},
        UnaryCase{"sigmoid", [](const Tensor& x) { return sigmoid(x); },
                  [](fmnet::Rng& r) {
                    return static_cast<float>(r.uniform(-2.0, 2.0));
                  }},
        UnaryCase{"relu", [](const Tensor& x) { return relu(x); },
                  [](fmnet::Rng& r) {
                    const double v = r.uniform(0.2, 2.0);
                    return static_cast<float>(r.bernoulli(0.5) ? v : -v);
                  }},
        UnaryCase{"gelu", [](const Tensor& x) { return gelu(x); },
                  [](fmnet::Rng& r) {
                    return static_cast<float>(r.uniform(-2.0, 2.0));
                  }},
        UnaryCase{"square", [](const Tensor& x) { return square(x); },
                  [](fmnet::Rng& r) {
                    return static_cast<float>(r.uniform(-2.0, 2.0));
                  }}));

}  // namespace
}  // namespace fmnet::tensor
