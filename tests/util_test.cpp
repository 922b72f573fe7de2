// Unit tests for src/util: RNG determinism & distributions, TimeSeries
// resampling semantics, stats helpers, table/CSV formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/time_series.h"

namespace fmnet {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(FMNET_CHECK(false, "boom"), CheckError);
  try {
    FMNET_CHECK_EQ(1, 2);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("lhs=1"), std::string::npos);
  }
}

TEST(BinReader, ForgedLengthPrefixThrowsBeforeAllocatingIt) {
  // A 16-byte stream whose u64 length prefix claims 2^32 - 1 doubles
  // (32 GiB). The reader must fail on the missing bytes, having allocated
  // at most one bounded chunk, not the claimed length.
  std::stringstream buf;
  util::BinWriter w(buf);
  w.pod(static_cast<std::uint64_t>((1ULL << 32) - 1));
  w.pod(1.5);
  ASSERT_EQ(buf.str().size(), 16u);
  util::BinReader r(buf);
  try {
    (void)r.vec<double>();
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated artifact stream"),
              std::string::npos)
        << e.what();
  }
}

TEST(BinReader, VectorsRoundTripAcrossChunkBoundaries) {
  // 300k doubles span three read chunks; lengths 0 and 1 none or one.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{300'000}}) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 0.25);
    std::stringstream buf;
    util::BinWriter(buf).vec(v);
    util::BinReader r(buf);
    EXPECT_EQ(r.vec<double>(), v) << "n = " << n;
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(2.0);
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(acc / n, 3.5, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(13);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(acc / n, 200.0, 1.0);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(1.2, 10.0, 1000.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LE(v, 1000.0);
  }
}

TEST(Rng, DiscretePicksByWeight) {
  Rng rng(19);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.discrete({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double s = 0.0;
  double s2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(1.0, 2.0);
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 1.0, 0.02);
  EXPECT_NEAR(s2 / n - (s / n) * (s / n), 4.0, 0.1);
}

TEST(Rng, ForkIndependent) {
  Rng a(99);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, DeriveStreamSeedIsPureAndDistinct) {
  // Same (seed, stream) -> same value; nearby streams decorrelate.
  EXPECT_EQ(derive_stream_seed(42, 0), derive_stream_seed(42, 0));
  EXPECT_NE(derive_stream_seed(42, 0), derive_stream_seed(42, 1));
  EXPECT_NE(derive_stream_seed(42, 0), derive_stream_seed(43, 0));
  // Stream 0 must not collapse to the base seed (the +1 in the mix).
  EXPECT_NE(derive_stream_seed(7, 0), 7u);
}

TEST(TimeSeries, DownsampleInstantTakesFirstOfWindow) {
  TimeSeries ts({1, 2, 3, 4, 5, 6}, 1.0);
  const TimeSeries ds = ts.downsample_instant(3);
  EXPECT_EQ(ds.values(), (std::vector<double>{1, 4}));
  EXPECT_DOUBLE_EQ(ds.step_ms(), 3.0);
}

TEST(TimeSeries, DownsampleMaxTakesWindowMax) {
  TimeSeries ts({1, 9, 3, 4, 2, 6}, 1.0);
  EXPECT_EQ(ts.downsample_max(3).values(), (std::vector<double>{9, 6}));
}

TEST(TimeSeries, DownsampleSumAddsWindow) {
  TimeSeries ts({1, 2, 3, 4, 5, 6}, 1.0);
  EXPECT_EQ(ts.downsample_sum(2).values(), (std::vector<double>{3, 7, 11}));
}

TEST(TimeSeries, UpsampleHoldRepeats) {
  TimeSeries ts({1, 2}, 2.0);
  EXPECT_EQ(ts.upsample_hold(2).values(), (std::vector<double>{1, 1, 2, 2}));
  EXPECT_DOUBLE_EQ(ts.upsample_hold(2).step_ms(), 1.0);
}

TEST(TimeSeries, UpsampleLinearInterpolates) {
  TimeSeries ts({0, 2}, 2.0);
  EXPECT_EQ(ts.upsample_linear(2).values(),
            (std::vector<double>{0, 1, 2, 2}));
}

TEST(TimeSeries, RoundTripInstantSampling) {
  TimeSeries fine({5, 1, 2, 8, 0, 3, 4, 4}, 1.0);
  const TimeSeries coarse = fine.downsample_instant(4);
  EXPECT_DOUBLE_EQ(coarse[0], fine[0]);
  EXPECT_DOUBLE_EQ(coarse[1], fine[4]);
}

TEST(TimeSeries, SliceAndStats) {
  TimeSeries ts({4, 7, 1, 3}, 1.0);
  EXPECT_EQ(ts.slice(1, 3).values(), (std::vector<double>{7, 1}));
  EXPECT_DOUBLE_EQ(ts.max(), 7);
  EXPECT_DOUBLE_EQ(ts.min(), 1);
  EXPECT_DOUBLE_EQ(ts.sum(), 15);
  EXPECT_DOUBLE_EQ(ts.mean(), 3.75);
}

TEST(TimeSeries, DownsampleRejectsIndivisibleLength) {
  TimeSeries ts({1, 2, 3}, 1.0);
  EXPECT_THROW(ts.downsample_max(2), CheckError);
}

TEST(TimeSeries, NormalizedError) {
  TimeSeries a({1, 2, 3}, 1.0);
  TimeSeries b({1, 2, 4}, 1.0);
  EXPECT_NEAR(normalized_error(a, b), 1.0 / 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(l1_distance(a, b), 1.0);
}

TEST(Stats, MeanStddevPercentile) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

TEST(Stats, PearsonPerfectAndZero) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{2, 4, 6};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  std::vector<double> c{5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(a, c), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", Table::fmt(1.5, 2)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/fmnet_csv_test.csv";
  write_csv(path, {"t", "q"}, {{0, 1}, {5, 6}});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,q");
  std::getline(in, line);
  EXPECT_EQ(line, "0,5");
  std::remove(path.c_str());
}

TEST(Csv, RejectsRaggedColumns) {
  EXPECT_THROW(write_csv("/tmp/x.csv", {"a", "b"}, {{1.0}, {1.0, 2.0}}),
               CheckError);
}

TEST(StringUtil, SplitJoin) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_ms(), 1000.0);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(lanes);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(0, 1000, [&](std::int64_t i) {
      ++hits[static_cast<std::size_t>(i)];
    });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, ShardedReduceMatchesSerial) {
  util::ThreadPool pool(4);
  const auto squares = util::parallel_map<std::int64_t>(
      pool, 100, [](std::int64_t i) { return i * i; });
  const std::int64_t total =
      std::accumulate(squares.begin(), squares.end(), std::int64_t{0});
  EXPECT_EQ(total, 99 * 100 * 199 / 6);
}

TEST(ThreadPool, LaneIdsAreExclusiveAndInRange) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> occupancy(3);
  std::atomic<bool> ok{true};
  pool.parallel_for_lane(0, 64, [&](std::size_t lane, std::int64_t) {
    if (lane >= 3) ok = false;
    if (occupancy[lane].fetch_add(1) != 0) ok = false;  // exclusive
    occupancy[lane].fetch_sub(1);
  });
  // A region of fewer indices than lanes only hands out lanes below its
  // index count, so per-lane scratch can be sized by it.
  util::ThreadPool wide(8);
  for (int rep = 0; rep < 50; ++rep) {
    wide.parallel_for_lane(0, 2, [&](std::size_t lane, std::int64_t) {
      if (lane >= 2) ok = false;
    });
  }
  EXPECT_TRUE(ok);
}

TEST(ThreadPool, PropagatesBodyException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::int64_t i) {
                                   if (i == 37) FMNET_CHECK(false, "inner");
                                 }),
               CheckError);
  // The pool must survive an aborted region and run the next one.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedRegionsCoverEveryIndex) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, [&](std::int64_t) {
    pool.parallel_for(0, 8, [&](std::int64_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedRegionsNeverOversubscribe) {
  // Outer tasks that internally parallel_map (the per-switch fabric shape:
  // switch tasks running pool-parallel training) must neither deadlock nor
  // run on more OS threads than the pool owns. Idle workers may be
  // recruited by inner regions; busy ones never are.
  util::ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::vector<std::int64_t> outer_sums(3, 0);
  pool.parallel_for(0, 3, [&](std::int64_t o) {
    const auto inner = util::parallel_map<std::int64_t>(
        pool, 64, [&](std::int64_t i) {
          {
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(std::this_thread::get_id());
          }
          return (o + 1) * i;
        });
    outer_sums[static_cast<std::size_t>(o)] =
        std::accumulate(inner.begin(), inner.end(), std::int64_t{0});
  });
  EXPECT_LE(seen.size(), 4u);  // caller + at most 3 workers, ever
  for (std::int64_t o = 0; o < 3; ++o) {
    EXPECT_EQ(outer_sums[static_cast<std::size_t>(o)], (o + 1) * 63 * 64 / 2);
  }
}

TEST(ThreadPool, NestedRegionsRecruitIdleWorkers) {
  // One outer index occupies the caller and leaves every worker idle; the
  // inner region should be able to fan out to them. The recruit count is
  // advisory (scheduling-dependent), so assert progress rather than an
  // exact lane count: with bodies that block until at least two distinct
  // threads have entered, completion itself proves a worker helped.
  util::ThreadPool pool(4);
  std::atomic<int> entered{0};
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.parallel_for(0, 2, [&](std::int64_t) {
    pool.parallel_for(0, 16, [&](std::int64_t) {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
      ++entered;
    });
  });
  EXPECT_EQ(entered.load(), 32);
  EXPECT_LE(seen.size(), 4u);
}

TEST(ThreadPool, NestedRegionsPreserveOuterFlagAcrossFanOut) {
  // Regression: the caller-participation path must save/restore the
  // in-region flag. If a nested fan-out cleared it, a *second* nested
  // region on the same outer body would mistake itself for top-level and
  // recruit busy workers. Observable contract: three stacked levels keep
  // covering every index exactly once.
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, 2, [&](std::int64_t) {
    pool.parallel_for(0, 4, [&](std::int64_t) {
      pool.parallel_for(0, 8, [&](std::int64_t) { ++count; });
    });
    pool.parallel_for(0, 4, [&](std::int64_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 2 * (4 * 8 + 4));
}

TEST(ThreadPool, NestedRegionsCountEachThreadsTimeOnce) {
  // 20 outer regions of 4 indices, each opening a nested region of four
  // 0.5 ms spins: 160 ms of work. Each thread records busy and idle time
  // once, for the outermost region it is in, under its own slot (lane 0:
  // the caller; lane k: worker k). So no slot can hold more time than
  // passed on the wall clock, and the lanes together hold all of the work
  // but at most lanes x wall.
  const auto spin = [] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(500);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  util::ThreadPool pool(4);
  for (int r = 0; r < 20; ++r) {
    pool.parallel_for(0, 4, [&](std::int64_t) {
      pool.parallel_for(0, 4, [&](std::int64_t) { spin(); });
    });
  }
  const auto stats = pool.lane_stats();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(stats.size(), 4u);
  double busy = 0.0;
  std::int64_t tasks = 0;
  for (std::size_t l = 0; l < stats.size(); ++l) {
    EXPECT_LE(stats[l].busy_s + stats[l].idle_s, wall) << "lane " << l;
    busy += stats[l].busy_s;
    tasks += stats[l].tasks;
  }
  EXPECT_GE(busy, 20 * 4 * 4 * 0.0005);
  EXPECT_LE(busy, 4.0 * wall);
  // Task counts stay per region lane: every outer and inner index.
  EXPECT_EQ(tasks, 20 * 4 + 20 * 4 * 4);
}

TEST(Clock, WallClockIsMonotonicAndSharedAcrossResolve) {
  util::Clock& wall = util::Clock::wall();
  EXPECT_EQ(&util::Clock::resolve(nullptr), &wall);
  const double a = wall.now();
  const double b = wall.now();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);  // epoch = first use
}

TEST(Clock, VirtualClockReadsExactlyWhatTheDriverSet) {
  util::VirtualClock clock(1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.advance(0.25);
  EXPECT_DOUBLE_EQ(clock.now(), 1.75);
  clock.advance(0.0);  // zero advance is legal (same-tick reads)
  EXPECT_DOUBLE_EQ(clock.now(), 1.75);
  clock.set(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
  EXPECT_EQ(&util::Clock::resolve(&clock), &clock);
  EXPECT_THROW(clock.advance(-1.0), CheckError);
  EXPECT_THROW(clock.set(2.0), CheckError);  // set() may not go backwards
}

}  // namespace
}  // namespace fmnet
