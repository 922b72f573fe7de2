// Differentiable tensor operations.
//
// All functions build autograd graph nodes; gradients flow to any input
// with requires_grad. Binary elementwise ops support NumPy-style
// broadcasting (shapes aligned from the trailing dimension; size-1 or
// missing dimensions broadcast).
#pragma once

#include "tensor/tensor.h"

namespace fmnet::tensor {

// ---- elementwise binary (broadcasting) -----------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
/// Elementwise division; caller guarantees b is nowhere zero.
Tensor div(const Tensor& a, const Tensor& b);
/// Elementwise minimum (gradient flows to the smaller operand; ties to a).
Tensor minimum(const Tensor& a, const Tensor& b);
/// Elementwise maximum (gradient flows to the larger operand; ties to a).
Tensor maximum(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }

// ---- scalar convenience ---------------------------------------------------

Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- elementwise unary -----------------------------------------------------

Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
/// Natural log; caller guarantees strictly positive input.
Tensor log(const Tensor& a);
/// Square root; caller guarantees non-negative input.
Tensor sqrt(const Tensor& a);
/// |x|; subgradient 0 at x == 0.
Tensor abs(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor relu(const Tensor& a);
/// Gaussian error linear unit (tanh approximation, as in GPT-style models).
Tensor gelu(const Tensor& a);
Tensor square(const Tensor& a);
/// Clamp into [lo, hi]; zero gradient outside the active range.
Tensor clamp(const Tensor& a, float lo, float hi);

// ---- matmul ----------------------------------------------------------------

/// Matrix product. Supported shapes:
///   (m,k) x (k,n)     -> (m,n)
///   (b,m,k) x (k,n)   -> (b,m,n)   (shared rhs)
///   (b,m,k) x (b,k,n) -> (b,m,n)   (batched)
Tensor matmul(const Tensor& a, const Tensor& b);

// ---- fused composite ops (single graph node, hand-written backward) --------

/// Activation applied by linear_act after the affine map.
enum class Act { kNone, kRelu, kGelu };

/// act(x @ w + b) in one node. x: [.., k] (2-D or 3-D), w: [k, n], b: [n];
/// output has x's shape with the last dim replaced by n. Equivalent to
/// (gelu|relu)?(matmul(x, w) + b) with gradients to x, w and b.
Tensor linear_act(const Tensor& x, const Tensor& w, const Tensor& b,
                  Act act = Act::kNone);

/// Layer normalisation over the last axis with learnable gain/bias:
/// (x - mean) / sqrt(var + eps) * gamma + beta, fused forward+backward.
Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps = 1e-5f);

/// scale * (a @ b^T), batched over the leading dim when 3-D:
///   (t,d) x (s,d)     -> (t,s)
///   (b,t,d) x (b,s,d) -> (b,t,s)
/// One node for the attention score product — no materialised transpose,
/// no separate scaling node.
Tensor scaled_matmul_bt(const Tensor& a, const Tensor& b, float scale = 1.0f);

/// Whole multi-head scaled-dot-product attention block in one node. Head
/// h reads and writes the column block [h*dh, (h+1)*dh) of the model
/// dimension, dh = d / heads:
///   out[.., h] = softmax(scale * q[.., h] @ k[.., h]^T, last axis) @ v[.., h]
/// q: [b,t,d], k: [b,s,d], v: [b,s,d] -> [b,t,d]; d % heads == 0 and scale
/// must be positive. Per head it computes
/// matmul(softmax(scaled_matmul_bt(q, k, scale), 2), v) up to rounding.
/// It equals splitting the heads into a [b*heads, t, dh] batch, running
/// this op with heads = 1 and merging the heads back, bit for bit, but
/// each head is read and written in place through the row stride d
/// (kernels::attention_rows), so no split or merge copy exists. The [t,s]
/// score matrix never becomes graph state, so no score-sized gradient
/// buffers are zeroed or accumulated: training keeps the softmax rows for
/// the backward (kernels::attention_rows_grad), and inference keeps none
/// (the AVX-512 kernels hold scores, and training's softmax rows, in
/// key-major tiles of 16 query rows; other ISAs and shapes use a [t,s]
/// block).
Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 std::int64_t heads, float scale);

// ---- reductions ------------------------------------------------------------

/// Sum of all elements -> scalar.
Tensor sum(const Tensor& a);
/// Mean of all elements -> scalar.
Tensor mean(const Tensor& a);
/// Sum along one axis.
Tensor sum(const Tensor& a, std::size_t axis, bool keepdim);
/// Mean along one axis.
Tensor mean(const Tensor& a, std::size_t axis, bool keepdim);
/// Max along one axis (gradient routed to the first argmax).
Tensor max(const Tensor& a, std::size_t axis, bool keepdim);
/// Max of all elements -> scalar (gradient to first argmax).
Tensor max_all(const Tensor& a);
/// Numerically-stable softmax along one axis.
Tensor softmax(const Tensor& a, std::size_t axis);
/// Inclusive cumulative sum along one axis.
Tensor cumsum(const Tensor& a, std::size_t axis);

// ---- shape ops --------------------------------------------------------------

/// Reshape to a new shape with the same numel (copying handle, zero-copy
/// data share is not attempted; gradient reshapes back).
Tensor reshape(const Tensor& a, Shape shape);
/// Swap two axes (materialises a contiguous copy).
Tensor transpose(const Tensor& a, std::size_t axis0, std::size_t axis1);
/// Half-open slice [start, stop) along one axis.
Tensor slice(const Tensor& a, std::size_t axis, std::int64_t start,
             std::int64_t stop);
/// Concatenate along one axis; all other dims must match.
Tensor cat(const std::vector<Tensor>& parts, std::size_t axis);

}  // namespace fmnet::tensor
