// Thread-safe size-bucketed recycling pool for tensor element buffers.
//
// Every op result and gradient buffer in the autograd graph is a
// std::vector<float> that lives for one forward+backward sweep and is then
// thrown away; at training time that is thousands of sizeable allocations
// per epoch. The pool intercepts that churn: ops acquire() their output
// storage here, and Node::~Node releases storage and grad buffers back, so
// steady-state training reuses the same handful of buffers every step.
// Tensor storage built outside an op (model-input batches, dropout masks)
// comes from acquire() too: a plain vector would join the pool only on
// release, and once its class is full every later one is freed and a new
// one allocated.
//
// Rules:
//  * acquire(n) returns a vector of size exactly n whose *contents are
//    unspecified* — callers must write every element. acquire_zero(n)
//    zero-fills. A miss allocates exactly n floats.
//  * Buffers are bucketed by capacity class: class b holds capacities in
//    [2^b, 2^(b+1)). acquire(n) first searches n's own class for a buffer
//    of capacity >= n, so a buffer released at any size serves the next
//    acquire of that size (exact-fit reuse: a step's [300, 16] activations
//    are 4800 floats, no power of two), then takes any buffer of the next
//    two classes; larger buffers would waste over 4x the request.
//  * The pool is lane-affine: it is split into shards, each with its own
//    mutex, and every thread has a home shard (consecutive thread slots
//    folded onto the shards, as obs::Counter stripes its cells). release()
//    files a buffer in the caller's home shard; acquire() searches the
//    home shard first, so a pool lane mostly gets back buffers that are
//    still warm in its own core's cache, and it takes no lock another
//    lane is waiting on. Only when the home shard has no fit does it
//    steal from the other shards, before it allocates (counted as
//    tensor.pool.steal).
//  * Allocations below kMinPooledFloats bypass the pool entirely and take
//    no lock: tiny scalar nodes would otherwise pay a lock per node for no
//    win. Their count is a relaxed atomic.
//  * The pool is bounded: at most 128 buffers per class and 256 MB in all,
//    both totals over every shard; release beyond the caps simply frees
//    the buffer. clear() and stats() cover every shard.
//  * Reuse is invisible to results: every op fully initialises its output,
//    and grad buffers are zero-filled on (re)creation, so outputs are
//    bit-identical with the pool on or off (FMNET_TENSOR_POOL=0 disables
//    it to make that claim testable).
//  * Hit/miss/bypass/drop/steal counts are mirrored into obs counters
//    ("tensor.pool.*") for the metrics export.
#pragma once

#include <cstdint>
#include <vector>

namespace fmnet::tensor::pool {

/// Buffers smaller than this many floats are never pooled.
inline constexpr std::size_t kMinPooledFloats = 1024;

/// Vector of size n, contents unspecified (recycled buffers carry stale
/// values) — the caller must write every element before it is read.
std::vector<float> acquire(std::size_t n);

/// Vector of size n, all zeros.
std::vector<float> acquire_zero(std::size_t n);

/// Returns a buffer to the pool (or frees it when over the caps / below
/// the pooling threshold). Safe to call with a moved-from or empty vector.
void release(std::vector<float>&& buf);

/// Pool telemetry: the tensor.pool.* counters, cumulative since process
/// start, and the buffers held now.
struct Stats {
  std::int64_t hits = 0;      ///< acquire() served from the pool
  std::int64_t misses = 0;    ///< acquire() had to allocate
  std::int64_t bypasses = 0;  ///< acquire() below kMinPooledFloats
  std::int64_t releases = 0;  ///< buffers accepted back
  std::int64_t drops = 0;     ///< buffers refused (caps / threshold)
  std::int64_t steals = 0;    ///< hits served by another thread's shard
  std::int64_t reused_bytes = 0;  ///< bytes served from recycled buffers
  std::int64_t cached_buffers = 0;  ///< currently held buffers
  std::int64_t cached_bytes = 0;    ///< currently held bytes (capacity)
};
Stats stats();

/// Frees every cached buffer in every shard (stats counters other than
/// cached_* persist).
void clear();

/// Pooling is on unless FMNET_TENSOR_POOL=0 was set at startup or
/// set_enabled(false) was called; when off, acquire/release degrade to
/// plain allocation/free.
bool enabled();
void set_enabled(bool on);

}  // namespace fmnet::tensor::pool
