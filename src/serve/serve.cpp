#include "serve/serve.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "impute/registry.h"
#include "util/check.h"

namespace fmnet::serve {

namespace {

/// Prime stride decorrelating session phases: neighbouring sessions replay
/// the same recording at well-separated offsets, so their windows fill
/// (and their load arrives) spread out rather than in lockstep bursts.
constexpr std::int64_t kPhaseStride = 7919;

/// Sessions per ingest shard. A pure function of the session count (never
/// of the lane count), so the shard decomposition — and therefore every
/// published bit — is identical at any FMNET_THREADS.
constexpr std::int64_t kIngestShard = 64;

}  // namespace

ServeCore::ServeCore(const ServeConfig& config,
                     std::shared_ptr<impute::Imputer> model,
                     std::size_t window_intervals, std::size_t factor,
                     double qlen_scale, double count_scale,
                     impute::CemConfig cem, const util::Clock* clock,
                     util::ThreadPool* pool)
    : config_(config),
      model_(std::move(model)),
      fallback_(impute::Registry::create("linear", {})),
      factor_(factor),
      qlen_scale_(qlen_scale),
      cem_(cem),
      clock_(clock),
      pool_(pool),
      obs_raw_(obs::Registry::global().counter("serve.windows.raw")),
      obs_repaired_(
          obs::Registry::global().counter("serve.windows.repaired")),
      obs_degraded_(
          obs::Registry::global().counter("serve.windows.degraded")),
      obs_shed_queue_(obs::Registry::global().counter("serve.shed.queue")),
      obs_shed_repair_(
          obs::Registry::global().counter("serve.shed.repair")),
      obs_batches_(obs::Registry::global().counter("serve.batches")),
      obs_queue_depth_(obs::Registry::global().gauge("serve.queue.depth")),
      obs_latency_raw_(
          obs::Registry::global().percentiles("serve.latency.raw_ms")),
      obs_latency_repair_(
          obs::Registry::global().percentiles("serve.latency.repair_ms")) {
  FMNET_CHECK(model_ != nullptr, "null serving model");
  FMNET_CHECK(config_.enabled(), "serve.sessions must be > 0");
  FMNET_CHECK_GT(config_.max_batch, 0);
  FMNET_CHECK_GE(config_.max_delay_ticks, 0);
  FMNET_CHECK_GT(config_.queue_budget, 0);
  FMNET_CHECK_GE(config_.repair_budget, 0);
  sessions_.reserve(static_cast<std::size_t>(config_.sessions));
  for (std::int64_t i = 0; i < config_.sessions; ++i) {
    sessions_.emplace_back(i, window_intervals, factor, qlen_scale,
                           count_scale);
  }
}

void ServeCore::ingest(
    const std::vector<impute::CoarseIntervalUpdate>& updates) {
  FMNET_CHECK_EQ(updates.size(), sessions_.size());
  const double arrival = util::Clock::resolve(clock_).now();
  const auto num_sessions = static_cast<std::int64_t>(sessions_.size());
  const std::int64_t num_shards =
      (num_sessions + kIngestShard - 1) / kIngestShard;
  // Each shard lists its ready windows in session order; appending the
  // lists in shard order puts them in session order at any lane count.
  struct ShardReady {
    std::vector<ReadyWindow> windows;
    std::vector<impute::ImputationExample> examples;
  };
  std::vector<ShardReady> shards(static_cast<std::size_t>(num_shards));
  util::ThreadPool::resolve(pool_).parallel_for(
      0, num_shards, [&](std::int64_t shard) {
        ShardReady& ready = shards[static_cast<std::size_t>(shard)];
        const std::int64_t begin = shard * kIngestShard;
        const std::int64_t end =
            std::min(begin + kIngestShard, num_sessions);
        ready.windows.reserve(static_cast<std::size_t>(end - begin));
        ready.examples.reserve(static_cast<std::size_t>(end - begin));
        for (std::int64_t i = begin; i < end; ++i) {
          Session& s = sessions_[static_cast<std::size_t>(i)];
          if (!s.window.push(updates[static_cast<std::size_t>(i)])) {
            continue;
          }
          ready.windows.push_back(ReadyWindow{i, tick_, arrival});
          s.window.fill_example(s.example);
          ready.examples.push_back(std::move(s.example));
        }
      });
  std::size_t added = 0;
  for (const ShardReady& shard : shards) added += shard.windows.size();
  ready_.reserve(ready_.size() + added);
  ready_examples_.reserve(ready_examples_.size() + added);
  for (ShardReady& shard : shards) {
    ready_.insert(ready_.end(), shard.windows.begin(), shard.windows.end());
    ready_examples_.insert(ready_examples_.end(),
                           std::make_move_iterator(shard.examples.begin()),
                           std::make_move_iterator(shard.examples.end()));
  }
}

void ServeCore::shed_over_budget(std::vector<PublishedWindow>& out) {
  const std::int64_t over =
      static_cast<std::int64_t>(ready_.size()) - config_.queue_budget;
  if (over <= 0) return;
  for (std::int64_t i = 0; i < over; ++i) {
    const ReadyWindow& w = ready_[static_cast<std::size_t>(i)];
    PublishedWindow p;
    p.session = w.session;
    p.tick = w.tick;
    p.kind = WindowKind::kDegraded;
    impute::ImputationExample& ex =
        ready_examples_[static_cast<std::size_t>(i)];
    p.fine = fallback_->impute(ex);
    p.latency_seconds = util::Clock::resolve(clock_).now() - w.arrival;
    out.push_back(std::move(p));
    ++stats_.windows_degraded;
    obs_degraded_.add(1);
    ++stats_.shed_queue;
    obs_shed_queue_.add(1);
    Session& s = sessions_[static_cast<std::size_t>(w.session)];
    ++s.windows_shed;
    s.example = std::move(ex);
  }
  ready_.erase(ready_.begin(), ready_.begin() + over);
  ready_examples_.erase(ready_examples_.begin(),
                        ready_examples_.begin() + over);
}

void ServeCore::flush_batches(bool force,
                              std::vector<PublishedWindow>& out) {
  // Every whole max_batch group, plus the partial rest once forced or once
  // its oldest window has waited max_delay_ticks.
  const std::size_t ready = ready_.size();
  const auto group = static_cast<std::size_t>(config_.max_batch);
  std::size_t count = ready / group * group;
  if (count < ready &&
      (force || tick_ - ready_[count].tick >= config_.max_delay_ticks)) {
    count = ready;
  }
  if (count == 0) return;
  // The windows held back step aside, so the forward takes the released
  // ones in place.
  std::vector<impute::ImputationExample> held(
      std::make_move_iterator(ready_examples_.begin() +
                              static_cast<std::ptrdiff_t>(count)),
      std::make_move_iterator(ready_examples_.end()));
  ready_examples_.resize(count);
  // Each example asks for its newest interval alone (output_from), so
  // every output is the publication itself.
  std::vector<std::vector<double>> fine =
      model_->impute_batch(ready_examples_);
  FMNET_CHECK_EQ(fine.size(), count);
  ++stats_.batches;
  obs_batches_.add(1);

  const double now = util::Clock::resolve(clock_).now();
  for (std::size_t i = 0; i < count; ++i) {
    const ReadyWindow& w = ready_[i];
    impute::ImputationExample& ex = ready_examples_[i];
    FMNET_CHECK_EQ(fine[i].size(), factor_);
    PublishedWindow p;
    p.session = w.session;
    p.tick = w.tick;
    p.kind = WindowKind::kRaw;
    p.fine = std::move(fine[i]);
    p.latency_seconds = now - w.arrival;
    ++stats_.windows_raw;
    obs_raw_.add(1);
    obs_latency_raw_.record(p.latency_seconds * 1e3);
    Session& s = sessions_[static_cast<std::size_t>(w.session)];
    ++s.windows_published;

    if (config_.repair) {
      // Async repair job for the newest interval, in packet units; over
      // budget, the oldest job is dropped.
      const auto intervals =
          static_cast<std::int64_t>(ex.constraints.window_max.size());
      FMNET_CHECK_GT(intervals, 0);
      repairs_.push_back(RepairJob{
          w.session, w.tick, w.arrival, p.fine,
          impute::packet_interval(ex.constraints, qlen_scale_,
                                  intervals - 1)});
      if (static_cast<std::int64_t>(repairs_.size()) >
          config_.repair_budget) {
        repairs_.pop_front();
        ++stats_.shed_repair;
        obs_shed_repair_.add(1);
      }
    }
    out.push_back(std::move(p));
    // The window's example is used up: it goes back to its session, whose
    // next ready window refills it in place.
    s.example = std::move(ex);
  }
  ready_.erase(ready_.begin(),
               ready_.begin() + static_cast<std::ptrdiff_t>(count));
  ready_examples_ = std::move(held);
}

void ServeCore::run_repairs(std::vector<PublishedWindow>& out) {
  if (repairs_.empty()) return;
  // Each job is an independent, stateless window repair; parallel_map
  // collects results in job order for a deterministic publish sequence.
  // The jobs are read in place and cleared once published.
  std::vector<impute::CemResult> results =
      util::parallel_map<impute::CemResult>(
          util::ThreadPool::resolve(pool_),
          static_cast<std::int64_t>(repairs_.size()), [&](std::int64_t j) {
            const RepairJob& job = repairs_[static_cast<std::size_t>(j)];
            return cem_.correct_window(job.raw, job.interval);
          });
  const double now = util::Clock::resolve(clock_).now();
  for (std::size_t j = 0; j < repairs_.size(); ++j) {
    const RepairJob& job = repairs_[j];
    PublishedWindow p;
    p.session = job.session;
    p.tick = job.tick;
    p.kind = WindowKind::kRepaired;
    p.fine = std::move(results[j].corrected);
    p.latency_seconds = now - job.arrival;
    ++stats_.windows_repaired;
    obs_repaired_.add(1);
    obs_latency_repair_.record(p.latency_seconds * 1e3);
    out.push_back(std::move(p));
  }
  repairs_.clear();
}

void ServeCore::tick(
    const std::vector<impute::CoarseIntervalUpdate>& updates,
    std::vector<PublishedWindow>& out) {
  // Repair jobs enqueued on earlier ticks run first — the async lane is
  // always one tick behind the prediction path, deterministically.
  run_repairs(out);
  ingest(updates);
  obs_queue_depth_.set_max(static_cast<double>(ready_.size()));
  shed_over_budget(out);
  flush_batches(/*force=*/false, out);
  ++tick_;
}

void ServeCore::drain(std::vector<PublishedWindow>& out) {
  flush_batches(/*force=*/true, out);
  run_repairs(out);
}

ReplaySource::ReplaySource(const telemetry::CoarseTelemetry& coarse,
                           std::int64_t queues_per_port,
                           std::int64_t sessions)
    : coarse_(coarse),
      queues_per_port_(queues_per_port),
      sessions_(sessions),
      num_queues_(static_cast<std::int64_t>(coarse.periodic_qlen.size())),
      num_intervals_(static_cast<std::int64_t>(coarse.num_intervals())) {
  FMNET_CHECK_GT(sessions_, 0);
  FMNET_CHECK_GT(queues_per_port_, 0);
  FMNET_CHECK_GT(num_queues_, 0);
  FMNET_CHECK_GT(num_intervals_, 0);
}

void ReplaySource::fill(
    std::int64_t tick,
    std::vector<impute::CoarseIntervalUpdate>& updates) const {
  FMNET_CHECK_GE(tick, 0);
  updates.resize(static_cast<std::size_t>(sessions_));
  for (std::int64_t i = 0; i < sessions_; ++i) {
    const std::int64_t q = i % num_queues_;
    const std::int64_t port = q / queues_per_port_;
    const std::int64_t interval =
        ((i * kPhaseStride) % num_intervals_ + tick) % num_intervals_;
    auto& u = updates[static_cast<std::size_t>(i)];
    const auto qi = static_cast<std::size_t>(q);
    const auto pi = static_cast<std::size_t>(port);
    const auto ti = static_cast<std::size_t>(interval);
    u.periodic_qlen = coarse_.periodic_qlen[qi][ti];
    u.max_qlen = coarse_.max_qlen[qi][ti];
    u.port_sent = coarse_.snmp_sent[pi][ti];
    u.port_dropped = coarse_.snmp_dropped[pi][ti];
  }
}

}  // namespace fmnet::serve
