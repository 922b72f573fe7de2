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
// cases.
constexpr std::size_t kMaxBuffersPerBucket = 128;
constexpr std::int64_t kMaxCachedBytes = 256ll << 20;
constexpr std::size_t kNumBuckets = 48;

// Bucket index = position of the highest set bit (floor log2): a released
// buffer of capacity c lands in bucket floor_log2(c), so bucket b holds
// capacities in [2^b, 2^(b+1)).
std::size_t floor_log2(std::size_t v) {
  std::size_t b = 0;
  while (v >>= 1) ++b;
  return b;
}

struct Pool {
  std::mutex mu;
  std::vector<std::vector<float>> buckets[kNumBuckets];
  Stats st;

  static Pool& instance() {
    // Leaked so buffers released from static-storage tensors during
    // shutdown never touch a destroyed pool (same pattern as
    // obs::Registry).
    static Pool* p = new Pool();
    return *p;
  }
};

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv("FMNET_TENSOR_POOL");
  return !(env != nullptr && env[0] == '0' && env[1] == '\0');
}()};

struct ObsCounters {
  obs::Counter& hit;
  obs::Counter& miss;
  obs::Counter& bypass;
  obs::Counter& release;
  obs::Counter& drop;
  obs::Counter& reused_bytes;

  static ObsCounters& instance() {
    auto& reg = obs::Registry::global();
    static ObsCounters c{reg.counter("tensor.pool.hit"),
                         reg.counter("tensor.pool.miss"),
                         reg.counter("tensor.pool.bypass"),
                         reg.counter("tensor.pool.release"),
                         reg.counter("tensor.pool.drop"),
                         reg.counter("tensor.pool.reused_bytes")};
    return c;
  }
};

// Pops a recycled buffer with capacity >= n, or returns false. Bucket
// floor_log2(n) is where a released buffer of exactly n floats lives —
// the [300, 16] activations of a training step are 4800 floats, no power
// of two — but it also holds smaller capacities, so it is searched for a
// fit. The next two buckets hold only capacities > n; beyond them a hit
// would waste >4x the memory of the request.
bool try_pop(std::size_t n, std::vector<float>& out) {
  Pool& p = Pool::instance();
  const std::size_t first = floor_log2(n);
  std::lock_guard<std::mutex> lock(p.mu);
  const std::size_t last = std::min(first + 2, kNumBuckets - 1);
  for (std::size_t b = first; b <= last; ++b) {
    auto& bucket = p.buckets[b];
    for (std::size_t i = bucket.size(); i-- > 0;) {
      if (bucket[i].capacity() < n) continue;
      std::swap(bucket[i], bucket.back());
      out = std::move(bucket.back());
      bucket.pop_back();
      ++p.st.hits;
      p.st.reused_bytes += static_cast<std::int64_t>(n * sizeof(float));
      --p.st.cached_buffers;
      p.st.cached_bytes -=
          static_cast<std::int64_t>(out.capacity() * sizeof(float));
      return true;
    }
  }
  ++p.st.misses;
  return false;
}

}  // namespace

std::vector<float> acquire(std::size_t n) {
  if (n < kMinPooledFloats || !g_enabled.load(std::memory_order_relaxed)) {
    if (n >= kMinPooledFloats) {
      // Disabled but above threshold: count as a miss so hit-rate stays
      // meaningful when toggling the pool for A/B runs.
      std::lock_guard<std::mutex> lock(Pool::instance().mu);
      ++Pool::instance().st.misses;
      ObsCounters::instance().miss.add();
    } else {
      ObsCounters::instance().bypass.add();
      std::lock_guard<std::mutex> lock(Pool::instance().mu);
      ++Pool::instance().st.bypasses;
    }
    return std::vector<float>(n);
  }
  std::vector<float> v;
  if (try_pop(n, v)) {
    ObsCounters::instance().hit.add();
    ObsCounters::instance().reused_bytes.add(
        static_cast<std::int64_t>(n * sizeof(float)));
    v.resize(n);  // shrink is free; growth within capacity zero-extends
    return v;
  }
  ObsCounters::instance().miss.add();
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
  Pool& p = Pool::instance();
  if (!g_enabled.load(std::memory_order_relaxed)) {
    ObsCounters::instance().drop.add();
    std::lock_guard<std::mutex> lock(p.mu);
    ++p.st.drops;
    return;
  }
  const std::size_t b = std::min(floor_log2(cap), kNumBuckets - 1);
  const auto bytes = static_cast<std::int64_t>(cap * sizeof(float));
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.buckets[b].size() >= kMaxBuffersPerBucket ||
        p.st.cached_bytes + bytes > kMaxCachedBytes) {
      ++p.st.drops;
    } else {
      p.buckets[b].push_back(std::move(buf));
      ++p.st.releases;
      ++p.st.cached_buffers;
      p.st.cached_bytes += bytes;
      ObsCounters::instance().release.add();
      return;
    }
  }
  ObsCounters::instance().drop.add();
}

Stats stats() {
  Pool& p = Pool::instance();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.st;
}

void clear() {
  Pool& p = Pool::instance();
  std::lock_guard<std::mutex> lock(p.mu);
  for (auto& b : p.buckets) b.clear();
  p.st.cached_buffers = 0;
  p.st.cached_bytes = 0;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace fmnet::tensor::pool
