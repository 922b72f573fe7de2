#include "tensor/pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "obs/metrics.h"

namespace fmnet::tensor::pool {

namespace {

// Caps chosen for the training workload: the biggest recurring buffers are
// attention score matrices (a few MB); a 256 MB ceiling holds every buffer
// of a multi-lane training step with a wide margin while bounding worst
// cases. Both caps are totals over all shards.
constexpr std::int64_t kMaxBuffersPerBucket = 128;
constexpr std::int64_t kMaxCachedBytes = 256ll << 20;
constexpr std::size_t kNumBuckets = 48;
// One shard per pool lane on the 4-lane benchmark host, with room for the
// serving and test threads that also allocate tensors.
constexpr std::size_t kShards = 8;

// Bucket index = position of the highest set bit (floor log2): a released
// buffer of capacity c lands in bucket floor_log2(c), so bucket b holds
// capacities in [2^b, 2^(b+1)).
std::size_t floor_log2(std::size_t v) {
  std::size_t b = 0;
  while (v >>= 1) ++b;
  return b;
}

// The bucket a buffer of capacity `cap` is filed in.
std::size_t bucket_of(std::size_t cap) {
  return std::min(floor_log2(cap), kNumBuckets - 1);
}

struct alignas(64) Shard {
  std::mutex mu;
  std::vector<std::vector<float>> buckets[kNumBuckets];
};

struct Pool {
  Shard shards[kShards];
  // Buffers held per bucket and bytes held, over all shards. A release
  // reserves its room here before it files the buffer and a hit returns
  // the room after it takes one, so the held totals never exceed the caps.
  std::atomic<std::int64_t> held[kNumBuckets] = {};
  std::atomic<std::int64_t> held_bytes{0};

  static Pool& instance() {
    // Leaked so buffers released from static-storage tensors during
    // shutdown never touch a destroyed pool (same pattern as
    // obs::Registry).
    static Pool* p = new Pool();
    return *p;
  }
};

// The calling thread's home shard: threads take consecutive slots, folded
// onto the shards (the striping obs::Counter uses), so each pool lane
// files and finds its buffers in its own shard.
std::size_t home_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv("FMNET_TENSOR_POOL");
  return !(env != nullptr && env[0] == '0' && env[1] == '\0');
}()};

// The event counts behind stats(), striped per thread (no lock, no shared
// cache line between lanes).
struct ObsCounters {
  obs::Counter& hit;
  obs::Counter& miss;
  obs::Counter& bypass;
  obs::Counter& release;
  obs::Counter& drop;
  obs::Counter& steal;
  obs::Counter& reused_bytes;

  static ObsCounters& instance() {
    auto& reg = obs::Registry::global();
    static ObsCounters c{reg.counter("tensor.pool.hit"),
                         reg.counter("tensor.pool.miss"),
                         reg.counter("tensor.pool.bypass"),
                         reg.counter("tensor.pool.release"),
                         reg.counter("tensor.pool.drop"),
                         reg.counter("tensor.pool.steal"),
                         reg.counter("tensor.pool.reused_bytes")};
    return c;
  }
};

// Pops a buffer of capacity >= n from buckets [first, last] of `shard`.
// Bucket floor_log2(n) is where a released buffer of exactly n floats
// lives — the [300, 16] activations of a training step are 4800 floats,
// no power of two — but it also holds smaller capacities, so it is
// searched for a fit.
bool pop_fit(Shard& shard, std::size_t n, std::size_t first,
             std::size_t last, std::vector<float>& out) {
  std::lock_guard<std::mutex> lock(shard.mu);
  for (std::size_t b = first; b <= last; ++b) {
    auto& bucket = shard.buckets[b];
    for (std::size_t i = bucket.size(); i-- > 0;) {
      if (bucket[i].capacity() < n) continue;
      std::swap(bucket[i], bucket.back());
      out = std::move(bucket.back());
      bucket.pop_back();
      return true;
    }
  }
  return false;
}

// Pops a recycled buffer with capacity >= n, or returns false: the home
// shard first, then the other shards while any of the searched buckets
// holds a buffer anywhere. The two buckets above n's hold only capacities
// > n; beyond them a hit would waste >4x the memory of the request.
bool try_pop(std::size_t n, std::vector<float>& out) {
  Pool& p = Pool::instance();
  const std::size_t first = floor_log2(n);
  const std::size_t last = std::min(first + 2, kNumBuckets - 1);
  const std::size_t home = home_shard();
  const auto any_held = [&] {
    for (std::size_t b = first; b <= last; ++b) {
      if (p.held[b].load(std::memory_order_relaxed) > 0) return true;
    }
    return false;
  };
  bool found = pop_fit(p.shards[home], n, first, last, out);
  for (std::size_t i = 1; !found && i < kShards && any_held(); ++i) {
    found = pop_fit(p.shards[(home + i) % kShards], n, first, last, out);
    if (found) ObsCounters::instance().steal.add();
  }
  if (!found) return false;
  p.held[bucket_of(out.capacity())].fetch_sub(1, std::memory_order_relaxed);
  p.held_bytes.fetch_sub(
      static_cast<std::int64_t>(out.capacity() * sizeof(float)),
      std::memory_order_relaxed);
  return true;
}

// Reserves room for one buffer of `bytes` in bucket b, or returns false
// when that would pass a cap.
bool reserve(std::size_t b, std::int64_t bytes) {
  Pool& p = Pool::instance();
  if (p.held[b].fetch_add(1, std::memory_order_relaxed) >=
      kMaxBuffersPerBucket) {
    p.held[b].fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  if (p.held_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes >
      kMaxCachedBytes) {
    p.held_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    p.held[b].fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

}  // namespace

std::vector<float> acquire(std::size_t n) {
  ObsCounters& obs = ObsCounters::instance();
  if (n < kMinPooledFloats) {
    obs.bypass.add();
    return std::vector<float>(n);
  }
  // A disabled pool counts every acquire above the threshold as a miss,
  // so hit-rate stays meaningful when toggling the pool for A/B runs.
  std::vector<float> v;
  if (g_enabled.load(std::memory_order_relaxed) && try_pop(n, v)) {
    obs.hit.add();
    obs.reused_bytes.add(static_cast<std::int64_t>(n * sizeof(float)));
    v.resize(n);  // shrink is free; growth within capacity zero-extends
    return v;
  }
  obs.miss.add();
  return std::vector<float>(n);
}

std::vector<float> acquire_zero(std::size_t n) {
  std::vector<float> v = acquire(n);
  std::fill(v.begin(), v.end(), 0.0f);
  return v;
}

void release(std::vector<float>&& buf) {
  const std::size_t cap = buf.capacity();
  if (cap < kMinPooledFloats) return;  // not pool-eligible; free silently
  const std::size_t b = bucket_of(cap);
  if (!g_enabled.load(std::memory_order_relaxed) ||
      !reserve(b, static_cast<std::int64_t>(cap * sizeof(float)))) {
    ObsCounters::instance().drop.add();
    return;
  }
  Shard& shard = Pool::instance().shards[home_shard()];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.buckets[b].push_back(std::move(buf));
  }
  ObsCounters::instance().release.add();
}

Stats stats() {
  const ObsCounters& obs = ObsCounters::instance();
  Pool& p = Pool::instance();
  Stats st;
  st.hits = obs.hit.value();
  st.misses = obs.miss.value();
  st.bypasses = obs.bypass.value();
  st.releases = obs.release.value();
  st.drops = obs.drop.value();
  st.steals = obs.steal.value();
  st.reused_bytes = obs.reused_bytes.value();
  for (const auto& held : p.held) {
    st.cached_buffers += held.load(std::memory_order_relaxed);
  }
  st.cached_bytes = p.held_bytes.load(std::memory_order_relaxed);
  return st;
}

void clear() {
  Pool& p = Pool::instance();
  for (Shard& shard : p.shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      std::int64_t bytes = 0;
      for (const auto& buf : shard.buckets[b]) {
        bytes += static_cast<std::int64_t>(buf.capacity() * sizeof(float));
      }
      p.held[b].fetch_sub(static_cast<std::int64_t>(shard.buckets[b].size()),
                          std::memory_order_relaxed);
      p.held_bytes.fetch_sub(bytes, std::memory_order_relaxed);
      shard.buckets[b].clear();
    }
  }
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace fmnet::tensor::pool
