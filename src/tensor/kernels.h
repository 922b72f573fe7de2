// Cache-blocked, row-streaming GEMM kernels — the compute substrate under
// tensor::matmul and the fused nn ops.
//
// All three layout variants accumulate into C by default; passing
// `accumulate = false` overwrites C instead (the first k-step stores, the
// rest accumulate), which spares callers a zeroing pass over C — for the
// skinny-k attention products that pass costs as much as the GEMM itself.
// Overwrite-into-garbage equals accumulate-into-zeros value-for-value
// (same k-sum grouping; only the sign of a zero can differ):
//
//   gemm    : C[m,n] (+)= A[m,k]   @ B[k,n]
//   gemm_at : C[m,n] (+)= A[k,m]^T @ B[k,n]   (A given transposed)
//   gemm_bt : C[m,n] (+)= A[m,k]   @ B[n,k]^T (B given transposed)
//
// Scheme: the k dimension is processed in panels of kKC rows of B, each a
// row-major [kc, n] slab (gemm/gemm_at stream B in place; gemm_bt repacks
// its transposed B once per panel). The panel kernel advances kMR C rows
// together with kKU k-steps unrolled, streaming full B rows with
// branch-free unit-stride inner loops that the compiler auto-vectorizes for
// whatever ISA it targets. A is read as broadcast scalars through
// (row, col) strides, which is what lets one kernel serve the normal and
// transposed-A layouts at full speed. On x86-64 GCC builds the same body is
// also compiled as an AVX2+FMA clone and selected at startup when the CPU
// supports it (FMNET_KERNEL_ISA=portable pins the baseline path).
//
// Skinny outputs: when n <= kSkinnyMaxN (gemm and gemm_at only — gemm_bt
// still needs its repack), a register-accumulating kernel keeps each C row
// local across the full k extent and touches C once, dispatched over
// fixed-width instantiations so the inner loops have compile-time trip
// counts. Every row of a call computes its sum with the same operations —
// the one row body, or on the AVX-512 clones for n = 8 an intrinsic body
// that advances four rows per pass (kernels_avx512.inc) — so an output
// element is independent of the row's position within the call: the
// property batched inference leans on when it stacks windows whose start
// offsets are not multiples of kMR (see kernels_skinny.inc).
//
// Parallelism: output rows are split into fixed kRowBlock-row blocks and
// sharded across util::ThreadPool lanes. Every output element is computed
// start-to-finish by whichever lane owns its row block, with a k-order that
// does not depend on the partition — so results are bit-identical at any
// lane count (the determinism contract of util/thread_pool.h). Small
// problems (< kParallelFlops) run inline to skip dispatch overhead; the
// threshold is a pure function of the problem size, never the lane count.
//
// The naive triple-loop reference kernels are retained for tests (and as
// readable documentation of the contract).
#pragma once

#include <cstdint>
#include <vector>

namespace fmnet::util {
class ThreadPool;
}

namespace fmnet::tensor::kernels {

/// Instruction-set variants of the panel kernel. kPortable is whatever the
/// build baseline targets; kAvx2 / kAvx512 are runtime-dispatched clones
/// compiled on x86-64 GCC builds whose baseline lacks them. FMA contracts
/// a*b+c into one rounding, so variants may differ from each other (and
/// from the references) in the last ulp — each variant is individually
/// bit-deterministic at any lane count.
/// kAvx512Vnni is never compiled, dispatched or accepted as a pin; it is
/// kept only because the benchmark harness (benchmark/roofline.cpp) names it.
enum class Isa { kPortable = 0, kAvx2 = 1, kAvx512 = 2, kAvx512Vnni = 3 };

/// "portable" / "avx2" / "avx512" — the FMNET_KERNEL_ISA spellings.
const char* isa_name(Isa isa);

/// Variants compiled into this binary (always includes kPortable; clones
/// only exist on x86-64 GCC builds whose baseline lacks the target ISA).
std::vector<Isa> compiled_isas();

/// True when `isa` is compiled in AND the running CPU executes it.
bool isa_supported(Isa isa);

/// The variant the next gemm call will dispatch to. Startup default: the
/// best supported variant, unless FMNET_KERNEL_ISA pins one (an
/// unsupported pin falls back to the best supported variant).
Isa active_isa();

/// Re-pins the dispatch at runtime (tests sweep every supported variant in
/// one process). Requires isa_supported(isa).
void set_isa(Isa isa);

/// Panel-kernel unroll: kMR C rows advance together, kKU k-steps at a time.
inline constexpr std::int64_t kMR = 4;
inline constexpr std::int64_t kKU = 4;
/// k-panel depth: B slabs of at most kKC x n stay cache-resident and bound
/// gemm_bt's repack scratch.
inline constexpr std::int64_t kKC = 256;
/// Widest n served by the skinny register-accumulating kernel: one AVX-512
/// register / two AVX2 registers per C row.
inline constexpr std::int64_t kSkinnyMaxN = 16;
/// Rows per parallel work item (a multiple of kMR so row quads never
/// straddle lanes).
inline constexpr std::int64_t kRowBlock = 64;
/// Minimum 2*m*k*n FLOPs before a gemm fans out across pool lanes.
inline constexpr std::int64_t kParallelFlops = 4ll << 20;

/// Row strides of a GEMM's operands as stored, in floats: consecutive
/// rows of A (the [k,m] buffer for gemm_at, the [n,k] one for gemm_bt's
/// B) lie `a` (`b`, `c`) floats apart. 0 means dense — the stored row
/// width. A strided operand is a column block of a wider buffer: the
/// attention block reads and writes each head's columns of a [T, H*dh]
/// activation in place. Strides move addresses only, never the
/// arithmetic, so a strided call is bit-identical to the dense call on a
/// copied-out block.
struct RowStrides {
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
};

/// C[m,n] (+)= A[m,k] @ B[k,n]. `pool` nullptr = the global pool;
/// `accumulate` false overwrites C instead of adding into it.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, util::ThreadPool* pool = nullptr,
          bool accumulate = true, RowStrides ld = {});

/// C[m,n] (+)= A[k,m]^T @ B[k,n] (at points at the [k,m] buffer).
void gemm_at(const float* at, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n,
             util::ThreadPool* pool = nullptr, bool accumulate = true,
             RowStrides ld = {});

/// C[m,n] (+)= A[m,k] @ B[n,k]^T (bt points at the [n,k] buffer).
void gemm_bt(const float* a, const float* bt, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n,
             util::ThreadPool* pool = nullptr, bool accumulate = true,
             RowStrides ld = {});

// Elementwise row kernels, ISA-dispatched like the GEMMs (the scalar
// activation helpers contain clamp selects the SSE2 baseline cannot
// if-convert, so these loops only vectorise under the AVX2/AVX-512
// clones). Each output element is a pure function of its own row's
// contents and within-row position — never of `rows` — so stacked
// (batched) and per-window calls agree bit-for-bit under one ISA.

/// In-place numerically-stable softmax over `rows` contiguous rows of
/// `len`: row = exp(scale * (row - max(row))) / sum.
void softmax_rows(float* v, std::int64_t rows, std::int64_t len,
                  float scale);

/// In-place tanh-approximation GELU over `rows` contiguous rows of `len`.
void gelu_rows(float* v, std::int64_t rows, std::int64_t len);

/// Layout of the softmax rows attention_rows keeps for the backward.
enum class ProbsLayout {
  /// Dense [t][s]: P(i, j) at i * s + j.
  kRowMajor,
  /// [ceil(t / 16)][s][16] tiles of 16 query rows per key, as the AVX-512
  /// body computes them: P(i, j) at ((i / 16) * s + j) * 16 + i % 16. The
  /// lanes of a last partial tile past t hold finite values no one reads.
  kKeyMajor,
};

/// Floats of one head's probs block, enough for either layout:
/// round_up(t, 16) * s. A multiple of 16, so consecutive blocks of a
/// 64-byte-aligned slab stay 64-byte aligned.
std::int64_t attention_probs_floats(std::int64_t t, std::int64_t s);

/// Scaled-dot-product attention of one batch entry and one head:
///   out[t, hd] = softmax(scale * q[t, hd] @ k[s, hd]^T) @ v[s, hd]
/// with q, k, v and out one head's columns of wider buffers whose rows are
/// `ld` floats apart, read and written in place. `probs`, when not null,
/// receives the softmax rows (training keeps them for the backward pass;
/// inference passes null): attention_probs_floats(t, s) floats at a
/// 64-byte-aligned address. Returns the layout written there, which
/// attention_rows_grad must be given.
///
/// Bit contract. The portable and AVX2 variants run the composition
/// gemm_bt (scores, overwrite) -> softmax_rows (scale folded into the exp)
/// -> gemm (P @ V, overwrite) under the active ISA and keep P row-major,
/// and so do the AVX-512 variants for hd != 8 or s % kKU != 0. For
/// hd == 8 and s % kKU == 0 the AVX-512 variants run a key-major body that
/// puts one query row in each vector lane, spells out, with intrinsics,
/// the fused and unfused operations GCC compiles that composition to at
/// -O3 (kernels_avx512.inc), and keeps P key-major. In every build the
/// body's output (and probs) equals that spelled sequence; it equals the
/// composition itself in GCC -O3 Release builds (checked with GCC 12.2),
/// not in Debug or -O1 sanitizer builds, which contract the composition
/// differently. Each row is a pure function of its own query and the
/// head's keys and values, so results do not depend on t.
ProbsLayout attention_rows(const float* q, const float* k, const float* v,
                           float* out, std::int64_t t, std::int64_t s,
                           std::int64_t hd, std::int64_t ld, float scale,
                           float* probs);

/// Floats of scratch attention_rows_grad needs for t query rows and s keys
/// (it aligns the scratch itself).
std::int64_t attention_grad_scratch_floats(std::int64_t t, std::int64_t s);

/// Backward of attention_rows for one head. Given the forward's q, k, v
/// (same addressing), its probs in the layout it returned, and dy (the
/// gradient of out, rows `ld` apart), accumulates
///   dV += P^T @ dY,  dZ = scale * P * (dP - rowsum(dP * P)) with
///   dP = dY @ V^T,   dQ += dZ @ K,   dK += dZ^T @ Q
/// into dq, dk and dv (rows `ld` apart; a null one is skipped). The layout
/// picks the variant, not the active ISA, so a forward and its backward
/// always agree.
///
/// Bit contract. Row-major P runs the composition under the active ISA:
/// gemm_at (dV), gemm_bt (dP, overwrite), softmax_jacobian_rows, gemm (dQ)
/// and gemm_at (dK), with a [t, s] block of the scratch for dP and dZ.
/// Key-major P (only the AVX-512 body writes it) runs that composition's
/// operations on the tiles:
///   - dP with the scores' k = 8 spelling, one query row per lane;
///   - the Jacobian's row dot as softmax_jacobian_rows forms it, a
///     separately rounded multiply then an add per key in key order,
///     then dZ = (scale * P) * (dP - dot);
///   - dQ with the forward's P @ V grouping (skinny8_rows');
///   - dV and dK through skinny8_rows reading P and dZ key-major: one
///     tile's 16 query rows of a key are exactly one of its 4 * kKU-step
///     passes, so the grouping is the composition's.
/// So it equals the spelled operations in every build and the composition
/// in GCC -O3 Release builds, as the forward does. skinny8_rows takes only
/// t % kKU == 0 (t is the k of dV and dK); for other t the key-major P is
/// copied out row-major and the composition runs.
void attention_rows_grad(const float* q, const float* k, const float* v,
                         const float* dy, const float* probs,
                         ProbsLayout layout, float* dq, float* dk, float* dv,
                         std::int64_t t, std::int64_t s, std::int64_t hd,
                         std::int64_t ld, float scale, float* scratch);

// Backward elementwise kernels (kernels_backward.cpp), ISA-dispatched
// like the rest. Their translation unit is compiled without FMA
// contraction, so every variant returns exactly the bits of the plain
// scalar loops (two roundings per multiply-add) that the SSE2 baseline
// ran before they were vectorised: trained weights do not depend on the
// ISA through these kernels. Serial dots keep their left-to-right order
// within a row and gain speed by interleaving rows.

/// dz[i] = dy[i] * gelu'(z[i]) over n elements (GELU's backward; z is the
/// pre-activation).
void gelu_grad_mul(const float* dy, const float* z, float* dz,
                   std::int64_t n);

/// Softmax backward with a score scale, in place over `rows` contiguous
/// rows of `len`: d = scale * y * (d - sum_j d[j] * y[j]), where y is the
/// softmax output and d arrives as its gradient.
void softmax_jacobian_rows(float* d, const float* y, std::int64_t rows,
                           std::int64_t len, float scale);

/// LayerNorm backward over `rows` contiguous rows of `f`. stats holds
/// (mean, 1/std) per row; inv_f = 1/f. Accumulates
///   dgamma[j] += sum_r dy * xhat,   dbeta[j] += sum_r dy,
///   dx += inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
/// with xhat = (x - mean) * inv_std and dxhat = dy * gamma. A null dx,
/// dgamma or dbeta skips that gradient.
void layer_norm_grad_rows(const float* dy, const float* x,
                          const float* stats, const float* gamma,
                          std::int64_t rows, std::int64_t f, float inv_f,
                          float* dx, float* dgamma, float* dbeta);

// Naive i-k-j reference implementations (single-threaded, no blocking).
// Used by the kernel tests as ground truth; same accumulate-into-C
// contract as the fast kernels.
void reference_gemm(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);
void reference_gemm_at(const float* at, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n);
void reference_gemm_bt(const float* a, const float* bt, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace fmnet::tensor::kernels
