#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/activations.h"
#include "tensor/broadcast.h"
#include "tensor/pool.h"
#include "util/check.h"

namespace fmnet::tensor {

namespace {

/// True when `s` is a trailing suffix of `out` (every shape is a suffix of
/// itself): out element n then reads s at n modulo numel(s).
bool is_suffix(const Shape& s, const Shape& out) {
  return s.size() <= out.size() &&
         std::equal(s.begin(), s.end(),
                    out.end() - static_cast<std::ptrdiff_t>(s.size()));
}

// Shared implementation for broadcasting binary elementwise ops.
// F:  (a, b) -> out
// DA: (a, b, gout) -> grad contribution to a
// DB: (a, b, gout) -> grad contribution to b
//
// When each operand's shape is the output's or a trailing suffix of it —
// equal shapes (residual adds, dropout masks, loss residuals) or a
// repeated operand such as the positional table [T, D] under [B, T, D] —
// the op skips the mixed-radix broadcast iterator for unit-stride blocks
// of the smaller operand's size, forward and backward. The blocks visit
// elements in the iterator's order, so a repeated operand's gradient sums
// in the same order and every bit is the iterator's.
template <class F, class DA, class DB>
Tensor binary_op(const Tensor& a, const Tensor& b, F f, DA da, DB db) {
  const Shape out_shape = a.shape() == b.shape()
                              ? a.shape()
                              : detail::broadcast_shape(a.shape(), b.shape());
  const std::int64_t total = numel(out_shape);
  // Block length; 0 = use the broadcast iterator.
  const std::int64_t block =
      is_suffix(a.shape(), out_shape) && is_suffix(b.shape(), out_shape)
          ? std::min(a.numel(), b.numel())
          : 0;
  // Whether each operand advances with the blocks or repeats in each one.
  const bool a_full = a.numel() == total;
  const bool b_full = b.numel() == total;
  std::vector<float> out = pool::acquire(static_cast<std::size_t>(total));
  const float* av = a.data().data();
  const float* bv = b.data().data();
  if (block > 0) {
    for (std::int64_t i0 = 0; i0 < total; i0 += block) {
      const float* x = av + (a_full ? i0 : 0);
      const float* y = bv + (b_full ? i0 : 0);
      float* o = out.data() + i0;
      for (std::int64_t j = 0; j < block; ++j) o[j] = f(x[j], y[j]);
    }
  } else {
    const auto sa = detail::aligned_strides(a.shape(), out_shape);
    const auto sb = detail::aligned_strides(b.shape(), out_shape);
    detail::for_each_bcast2(
        out_shape, sa, sb, [&](std::int64_t n, std::int64_t ia,
                               std::int64_t ib) {
          out[static_cast<std::size_t>(n)] = f(av[ia], bv[ib]);
        });
  }
  auto an = a.node();
  auto bn = b.node();
  return make_op_result(
      out_shape, std::move(out), {a, b},
      [an, bn, out_shape, total, block, a_full, b_full, da, db](Node& o) {
        const bool need_a = an->requires_grad;
        const bool need_b = bn->requires_grad;
        if (need_a) an->ensure_grad();
        if (need_b) bn->ensure_grad();
        if (block > 0) {
          // Both updates of an element in one iteration, a first: a
          // same-node pair (x * x) accumulates as the iterator does.
          for (std::int64_t i0 = 0; i0 < total; i0 += block) {
            const std::int64_t ia = a_full ? i0 : 0;
            const std::int64_t ib = b_full ? i0 : 0;
            const float* x = an->cdata().data() + ia;
            const float* y = bn->cdata().data() + ib;
            const float* g = o.grad.data() + i0;
            float* gx = need_a ? an->grad.data() + ia : nullptr;
            float* gy = need_b ? bn->grad.data() + ib : nullptr;
            for (std::int64_t j = 0; j < block; ++j) {
              if (need_a) gx[j] += da(x[j], y[j], g[j]);
              if (need_b) gy[j] += db(x[j], y[j], g[j]);
            }
          }
          return;
        }
        const auto sa = detail::aligned_strides(an->shape, out_shape);
        const auto sb = detail::aligned_strides(bn->shape, out_shape);
        detail::for_each_bcast2(
            out_shape, sa, sb,
            [&](std::int64_t n, std::int64_t ia, std::int64_t ib) {
              const float x = an->cdata()[static_cast<std::size_t>(ia)];
              const float y = bn->cdata()[static_cast<std::size_t>(ib)];
              const float g = o.grad[static_cast<std::size_t>(n)];
              if (need_a) an->grad[static_cast<std::size_t>(ia)] += da(x, y, g);
              if (need_b) bn->grad[static_cast<std::size_t>(ib)] += db(x, y, g);
            });
      });
}

// Shared implementation for unary elementwise ops.
// F: x -> out; D: (x, out, gout) -> grad contribution to x.
template <class F, class D>
Tensor unary_op(const Tensor& a, F f, D d) {
  std::vector<float> out = pool::acquire(a.data().size());
  const auto& av = a.data();
  for (std::size_t i = 0; i < av.size(); ++i) out[i] = f(av[i]);
  auto an = a.node();
  return make_op_result(a.shape(), std::move(out), {a}, [an, d](Node& o) {
    an->ensure_grad();
    for (std::size_t i = 0; i < o.cdata().size(); ++i) {
      an->grad[i] += d(an->cdata()[i], o.cdata()[i], o.grad[i]);
    }
  });
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x + y; },
      [](float, float, float g) { return g; },
      [](float, float, float g) { return g; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x - y; },
      [](float, float, float g) { return g; },
      [](float, float, float g) { return -g; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y, float g) { return g * y; },
      [](float x, float, float g) { return g * x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x / y; },
      [](float, float y, float g) { return g / y; },
      [](float x, float y, float g) { return -g * x / (y * y); });
}

Tensor minimum(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x <= y ? x : y; },
      [](float x, float y, float g) { return x <= y ? g : 0.0f; },
      [](float x, float y, float g) { return x <= y ? 0.0f : g; });
}

Tensor maximum(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x >= y ? x : y; },
      [](float x, float y, float g) { return x >= y ? g : 0.0f; },
      [](float x, float y, float g) { return x >= y ? 0.0f : g; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x + s; },
      [](float, float, float g) { return g; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x * s; },
      [s](float, float, float g) { return g * s; });
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0f); }

Tensor exp(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::exp(x); },
      [](float, float out, float g) { return g * out; });
}

Tensor log(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::log(x); },
      [](float x, float, float g) { return g / x; });
}

Tensor sqrt(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::sqrt(x); },
      [](float, float out, float g) {
        return out > 0.0f ? g / (2.0f * out) : 0.0f;
      });
}

Tensor abs(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::fabs(x); },
      [](float x, float, float g) {
        return x > 0.0f ? g : (x < 0.0f ? -g : 0.0f);
      });
}

Tensor tanh(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float, float out, float g) { return g * (1.0f - out * out); });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float out, float g) { return g * out * (1.0f - out); });
}

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return detail::relu_value(x); },
      [](float x, float, float g) { return g * detail::relu_grad(x); });
}

Tensor gelu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return detail::gelu_value(x); },
      [](float x, float, float g) { return g * detail::gelu_grad(x); });
}

Tensor square(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x * x; },
      [](float x, float, float g) { return 2.0f * g * x; });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  FMNET_CHECK_LE(lo, hi);
  return unary_op(
      a,
      [lo, hi](float x) { return x < lo ? lo : (x > hi ? hi : x); },
      [lo, hi](float x, float, float g) {
        return (x >= lo && x <= hi) ? g : 0.0f;
      });
}

}  // namespace fmnet::tensor
