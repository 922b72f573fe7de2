// Fused composite ops for the transformer hot path: linear(+bias+activation),
// layer_norm, softmax, the attention score product A @ B^T, and the whole
// scaled-dot-product attention block. Each op is a single autograd node with
// a hand-written backward, replacing chains of 5-10 primitive nodes (each of
// which paid graph, allocation and broadcast iteration overhead per
// element).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "tensor/activations.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "util/check.h"

namespace fmnet::tensor {

namespace {

// Pool-recycling holder for auxiliary buffers captured by backward
// closures (pre-activation values, per-row norm stats): the buffer returns
// to the pool when the graph node dies instead of being freed.
struct PooledBuf {
  std::vector<float> v;
  explicit PooledBuf(std::vector<float>&& in) : v(std::move(in)) {}
  PooledBuf(const PooledBuf&) = delete;
  PooledBuf& operator=(const PooledBuf&) = delete;
  ~PooledBuf() { pool::release(std::move(v)); }
};
using PooledPtr = std::shared_ptr<PooledBuf>;

struct AxisView {
  std::int64_t outer = 1;
  std::int64_t len = 1;
  std::int64_t inner = 1;
};

AxisView axis_view(const Shape& shape, std::size_t axis) {
  FMNET_CHECK_LT(axis, shape.size());
  AxisView v;
  for (std::size_t i = 0; i < axis; ++i) v.outer *= shape[i];
  v.len = shape[axis];
  for (std::size_t i = axis + 1; i < shape.size(); ++i) v.inner *= shape[i];
  return v;
}

}  // namespace

Tensor linear_act(const Tensor& x, const Tensor& w, const Tensor& b,
                  Act act) {
  FMNET_CHECK(x.ndim() == 2 || x.ndim() == 3,
              "linear_act expects 2-D or 3-D input");
  FMNET_CHECK_EQ(w.ndim(), 2u);
  FMNET_CHECK_EQ(b.ndim(), 1u);
  const std::int64_t k = w.dim(0);
  const std::int64_t n = w.dim(1);
  FMNET_CHECK_EQ(x.shape().back(), k);
  FMNET_CHECK_EQ(b.dim(0), n);

  const std::int64_t rows = x.numel() / k;  // batch and time fold together
  std::vector<float> out =
      pool::acquire(static_cast<std::size_t>(rows * n));
  kernels::gemm_bias(x.data().data(), w.data().data(), b.data().data(),
                     out.data(), rows, k, n);

  // GELU's gradient needs the pre-activation values; stash them (skipped in
  // inference mode, where no backward will ever read them). ReLU's gate is
  // recoverable from the output sign, and identity needs nothing.
  PooledPtr z;
  if (act == Act::kGelu) {
    if (!inference_mode()) {
      auto keep = pool::acquire(static_cast<std::size_t>(rows * n));
      std::memcpy(keep.data(), out.data(),
                  static_cast<std::size_t>(rows * n) * sizeof(float));
      z = std::make_shared<PooledBuf>(std::move(keep));
    }
    kernels::gelu_rows(out.data(), rows, n);
  } else if (act == Act::kRelu) {
    for (auto& v : out) v = detail::relu_value(v);
  }

  Shape out_shape = x.shape();
  out_shape.back() = n;
  auto xn = x.node();
  auto wn = w.node();
  auto bn = b.node();
  return make_op_result(
      std::move(out_shape), std::move(out), {x, w, b},
      [xn, wn, bn, z, rows, k, n, act](Node& o) {
        const std::size_t total = static_cast<std::size_t>(rows * n);
        const float* go = o.grad.data();
        // dz = dy * act'(z); identity aliases the output grad directly.
        std::vector<float> dz_buf;
        const float* dz = go;
        if (act == Act::kGelu) {
          dz_buf = pool::acquire(total);
          kernels::gelu_grad_mul(go, z->v.data(), dz_buf.data(),
                                 static_cast<std::int64_t>(total));
          dz = dz_buf.data();
        } else if (act == Act::kRelu) {
          dz_buf = pool::acquire(total);
          const float* yv = o.cdata().data();
          for (std::size_t i = 0; i < total; ++i) {
            dz_buf[i] = yv[i] > 0.0f ? go[i] : 0.0f;
          }
          dz = dz_buf.data();
        }
        if (xn->requires_grad) {
          xn->ensure_grad();
          kernels::gemm_bt(dz, wn->cdata().data(), xn->grad.data(), rows, n,
                           k);
        }
        if (wn->requires_grad) {
          wn->ensure_grad();
          kernels::gemm_at(xn->cdata().data(), dz, wn->grad.data(), k, rows,
                           n);
        }
        if (bn->requires_grad) {
          bn->ensure_grad();
          float* gb = bn->grad.data();
          for (std::int64_t i = 0; i < rows; ++i) {
            const float* row = dz + i * n;
            for (std::int64_t j = 0; j < n; ++j) gb[j] += row[j];
          }
        }
        pool::release(std::move(dz_buf));
      });
}

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps) {
  FMNET_CHECK_GE(x.ndim(), 1u);
  FMNET_CHECK_EQ(gamma.ndim(), 1u);
  FMNET_CHECK_EQ(beta.ndim(), 1u);
  const std::int64_t f = x.shape().back();
  FMNET_CHECK_EQ(gamma.dim(0), f);
  FMNET_CHECK_EQ(beta.dim(0), f);
  const std::int64_t rows = x.numel() / f;
  const float inv_f = 1.0f / static_cast<float>(f);

  std::vector<float> out = pool::acquire(static_cast<std::size_t>(x.numel()));
  // Per-row (mu, inv_std), saved for backward.
  auto st = std::make_shared<PooledBuf>(
      pool::acquire(static_cast<std::size_t>(2 * rows)));
  kernels::layer_norm_rows(x.data().data(), gamma.data().data(),
                           beta.data().data(), rows, f, inv_f, eps,
                           out.data(), st->v.data());

  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return make_op_result(
      x.shape(), std::move(out), {x, gamma, beta},
      [xn, gn, bn, st, rows, f, inv_f](Node& o) {
        if (xn->requires_grad) xn->ensure_grad();
        if (gn->requires_grad) gn->ensure_grad();
        if (bn->requires_grad) bn->ensure_grad();
        kernels::layer_norm_grad_rows(
            o.grad.data(), xn->cdata().data(), st->v.data(),
            gn->cdata().data(), rows, f, inv_f,
            xn->requires_grad ? xn->grad.data() : nullptr,
            gn->requires_grad ? gn->grad.data() : nullptr,
            bn->requires_grad ? bn->grad.data() : nullptr);
      });
}

Tensor softmax(const Tensor& a, std::size_t axis) {
  const AxisView v = axis_view(a.shape(), axis);
  std::vector<float> out = pool::acquire(a.data().size());
  const auto& av = a.data();
  if (v.inner == 1) {
    // Hot layout (softmax over the last axis): each fibre is contiguous —
    // copy once, then run the ISA-dispatched row kernel in place (the
    // same one the fused attention block uses).
    std::memcpy(out.data(), av.data(), av.size() * sizeof(float));
    kernels::softmax_rows(out.data(), v.outer, v.len, 1.0f);
  } else {
    for (std::int64_t o = 0; o < v.outer; ++o) {
      for (std::int64_t i = 0; i < v.inner; ++i) {
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t l = 0; l < v.len; ++l) {
          mx = std::max(
              mx, av[static_cast<std::size_t>((o * v.len + l) * v.inner + i)]);
        }
        float denom = 0.0f;
        for (std::int64_t l = 0; l < v.len; ++l) {
          const auto idx =
              static_cast<std::size_t>((o * v.len + l) * v.inner + i);
          out[idx] = detail::fast_expf(av[idx] - mx);
          denom += out[idx];
        }
        for (std::int64_t l = 0; l < v.len; ++l) {
          out[static_cast<std::size_t>((o * v.len + l) * v.inner + i)] /=
              denom;
        }
      }
    }
  }
  auto an = a.node();
  return make_op_result(
      a.shape(), std::move(out), {a}, [an, v](Node& o) {
        an->ensure_grad();
        // dx = y * (g - sum(g * y)) per softmax fibre.
        if (v.inner == 1) {
          for (std::int64_t ou = 0; ou < v.outer; ++ou) {
            const float* yrow = o.cdata().data() + ou * v.len;
            const float* grow = o.grad.data() + ou * v.len;
            float* gxrow = an->grad.data() + ou * v.len;
            float dot = 0.0f;
            for (std::int64_t l = 0; l < v.len; ++l) dot += grow[l] * yrow[l];
            for (std::int64_t l = 0; l < v.len; ++l) {
              gxrow[l] += yrow[l] * (grow[l] - dot);
            }
          }
          return;
        }
        for (std::int64_t ou = 0; ou < v.outer; ++ou) {
          for (std::int64_t i = 0; i < v.inner; ++i) {
            float dot = 0.0f;
            for (std::int64_t l = 0; l < v.len; ++l) {
              const auto idx = static_cast<std::size_t>(
                  (ou * v.len + l) * v.inner + i);
              dot += o.grad[idx] * o.cdata()[idx];
            }
            for (std::int64_t l = 0; l < v.len; ++l) {
              const auto idx = static_cast<std::size_t>(
                  (ou * v.len + l) * v.inner + i);
              an->grad[idx] += o.cdata()[idx] * (o.grad[idx] - dot);
            }
          }
        }
      });
}

Tensor scaled_matmul_bt(const Tensor& a, const Tensor& b, float scale) {
  const Shape& as = a.shape();
  const Shape& bs = b.shape();
  FMNET_CHECK(as.size() == bs.size() && (as.size() == 2 || as.size() == 3),
              "scaled_matmul_bt expects matching 2-D or 3-D inputs, got " +
                  shape_to_string(as) + " x " + shape_to_string(bs));
  const bool batched = as.size() == 3;
  const std::int64_t batch = batched ? as[0] : 1;
  const std::int64_t t = batched ? as[1] : as[0];
  const std::int64_t d = batched ? as[2] : as[1];
  const std::int64_t s = batched ? bs[1] : bs[0];
  FMNET_CHECK_EQ(batched ? bs[2] : bs[1], d);
  if (batched) FMNET_CHECK_EQ(bs[0], batch);

  Shape out_shape = batched ? Shape{batch, t, s} : Shape{t, s};
  std::vector<float> out =
      pool::acquire(static_cast<std::size_t>(numel(out_shape)));
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  for (std::int64_t e = 0; e < batch; ++e) {
    kernels::gemm_bt(ap + e * t * d, bp + e * s * d, out.data() + e * t * s,
                     t, d, s, /*pool=*/nullptr, /*accumulate=*/false);
  }
  if (scale != 1.0f) {
    for (auto& val : out) val *= scale;
  }

  auto an = a.node();
  auto bn = b.node();
  return make_op_result(
      std::move(out_shape), std::move(out), {a, b},
      [an, bn, batch, t, d, s, scale](Node& o) {
        const std::size_t total = static_cast<std::size_t>(batch * t * s);
        const float* go = o.grad.data();
        std::vector<float> scaled_buf;
        if (scale != 1.0f) {
          scaled_buf = pool::acquire(total);
          for (std::size_t i = 0; i < total; ++i) {
            scaled_buf[i] = go[i] * scale;
          }
          go = scaled_buf.data();
        }
        for (std::int64_t e = 0; e < batch; ++e) {
          const float* ge = go + e * t * s;
          if (an->requires_grad) {
            an->ensure_grad();
            // dA = scale * dC @ B
            kernels::gemm(ge, bn->cdata().data() + e * s * d,
                          an->grad.data() + e * t * d, t, s, d);
          }
          if (bn->requires_grad) {
            bn->ensure_grad();
            // dB = scale * dC^T @ A
            kernels::gemm_at(ge, an->cdata().data() + e * t * d,
                             bn->grad.data() + e * s * d, s, t, d);
          }
        }
        pool::release(std::move(scaled_buf));
      });
}

Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 std::int64_t heads, float scale) {
  FMNET_CHECK_EQ(q.ndim(), 3u);
  FMNET_CHECK_EQ(k.ndim(), 3u);
  FMNET_CHECK_EQ(v.ndim(), 3u);
  FMNET_CHECK_GT(heads, 0);
  FMNET_CHECK_GT(scale, 0.0f);
  const std::int64_t batch = q.dim(0);
  const std::int64_t t = q.dim(1);
  const std::int64_t dm = q.dim(2);
  const std::int64_t s = k.dim(1);
  FMNET_CHECK_EQ(dm % heads, 0);
  FMNET_CHECK_EQ(k.dim(0), batch);
  FMNET_CHECK_EQ(k.dim(2), dm);
  FMNET_CHECK_EQ(v.dim(0), batch);
  FMNET_CHECK_EQ(v.dim(1), s);
  FMNET_CHECK_EQ(v.dim(2), dm);
  const std::int64_t hd = dm / heads;
  // Head h of entry e is the column block [h*hd, (h+1)*hd) of each
  // [t, dm] slab: the forward and backward kernels address it in place
  // through row strides of dm, so the heads are never split out into (or
  // merged back from) a [B*H, T, hd] copy.

  // The whole block is one node, so the [T, S] score matrix never becomes
  // graph state: no score/attn gradient buffers to zero-fill and accumulate
  // into (at T=300 those were the two largest allocations per step).
  // kernels::attention_rows runs each (entry, head) forward in place on
  // the head's columns. Training keeps every pair's softmax rows, in the
  // layout the kernel returns, in one whole-batch slab for the backward,
  // which needs them for both dV and the softmax Jacobian; inference keeps
  // none (at B=16 that slab, 1 MB at the bench sizes, evicted the
  // L2-resident Q/K/V streams). Buffer addresses never enter the
  // arithmetic, so both modes compute the same bits.
  const std::int64_t head_probs = kernels::attention_probs_floats(t, s);
  PooledPtr attn;
  float* probs = nullptr;
  if (!inference_mode()) {
    // 16 floats of slack give the slab a 64-byte-aligned start.
    attn = std::make_shared<PooledBuf>(pool::acquire(
        static_cast<std::size_t>(batch * heads * head_probs + 16)));
    const auto addr = reinterpret_cast<std::uintptr_t>(attn->v.data());
    probs = reinterpret_cast<float*>((addr + 63) & ~std::uintptr_t{63});
  }
  std::vector<float> out =
      pool::acquire(static_cast<std::size_t>(batch * t * dm));
  const float* qp = q.data().data();
  const float* kp = k.data().data();
  const float* vp = v.data().data();
  kernels::ProbsLayout layout = kernels::ProbsLayout::kRowMajor;
  for (std::int64_t e = 0; e < batch; ++e) {
    for (std::int64_t h = 0; h < heads; ++h) {
      // Every pair has the same shape, so the same layout.
      layout = kernels::attention_rows(
          qp + e * t * dm + h * hd, kp + e * s * dm + h * hd,
          vp + e * s * dm + h * hd, out.data() + e * t * dm + h * hd, t, s,
          hd, dm, scale,
          probs != nullptr ? probs + (e * heads + h) * head_probs : nullptr);
    }
  }

  auto qn = q.node();
  auto kn = k.node();
  auto vn = v.node();
  return make_op_result(
      Shape{batch, t, dm}, std::move(out), {q, k, v},
      [qn, kn, vn, attn, probs, layout, batch, heads, t, hd, dm, s, scale,
       head_probs](Node& o) {
        const bool need_q = qn->requires_grad;
        const bool need_k = kn->requires_grad;
        const bool need_v = vn->requires_grad;
        if (need_q) qn->ensure_grad();
        if (need_k) kn->ensure_grad();
        if (need_v) vn->ensure_grad();
        // One scratch for every (entry, head) pair: the backward's dP / dZ
        // block and its packed operands.
        std::vector<float> scratch = pool::acquire(static_cast<std::size_t>(
            kernels::attention_grad_scratch_floats(t, s)));
        for (std::int64_t e = 0; e < batch; ++e) {
          for (std::int64_t h = 0; h < heads; ++h) {
            const std::int64_t q0 = e * t * dm + h * hd;
            const std::int64_t k0 = e * s * dm + h * hd;
            kernels::attention_rows_grad(
                qn->cdata().data() + q0, kn->cdata().data() + k0,
                vn->cdata().data() + k0, o.grad.data() + q0,
                probs + (e * heads + h) * head_probs, layout,
                need_q ? qn->grad.data() + q0 : nullptr,
                need_k ? kn->grad.data() + k0 : nullptr,
                need_v ? vn->grad.data() + k0 : nullptr, t, s, hd, dm, scale,
                scratch.data());
          }
        }
        pool::release(std::move(scratch));
      });
}

}  // namespace fmnet::tensor
