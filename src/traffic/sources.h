// Workload generators feeding the switch simulator.
//
// The paper's evaluation traffic (§4) is the ABM scenario: *websearch*
// (heavy-tailed flow sizes arriving as a Poisson process) plus *incast*
// (many-to-one fan-in bursts), with each port carrying two traffic classes.
// These generators reproduce that family:
//
//   PoissonSource   — memoryless background packets
//   WebsearchSource — flows with bounded-Pareto (DCTCP-websearch-like)
//                     sizes; flows to a port emit concurrently, so several
//                     co-active flows oversubscribe an egress and build a
//                     queue
//   IncastSource    — synchronized fan-in events: F flows × S packets all
//                     aimed at one victim port
//   CompositeSource — superposition
//
// All randomness flows through an explicit Rng for reproducibility.
#pragma once

#include <memory>
#include <vector>

#include "switchsim/switch.h"
#include "util/rng.h"

namespace fmnet::traffic {

using switchsim::Arrival;

/// Produces the packet arrivals of one slot.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;
  /// Appends this source's arrivals for the given slot index to `out`.
  virtual void generate(std::int64_t slot, std::vector<Arrival>& out) = 0;
};

/// Memoryless background traffic: per slot, Poisson(rate) packets to
/// uniformly random ports; queue class fixed.
class PoissonSource : public TrafficSource {
 public:
  PoissonSource(double packets_per_slot, std::int32_t num_ports,
                std::int32_t queue_class, fmnet::Rng rng);
  void generate(std::int64_t slot, std::vector<Arrival>& out) override;

 private:
  double rate_;
  std::int32_t num_ports_;
  std::int32_t queue_class_;
  fmnet::Rng rng_;
};

/// One in-flight flow: emits at most one packet per slot (its source NIC's
/// line share) until `remaining` is exhausted.
struct Flow {
  std::int32_t dst_port = 0;
  std::int32_t queue_class = 0;
  std::int64_t remaining = 0;
  /// Per-slot emission probability (<1 models a source that is not sending
  /// at full line rate).
  double emit_prob = 1.0;
};

/// Shared flow bookkeeping for flow-structured sources.
class FlowEngine {
 public:
  void add(Flow flow);
  /// Emits one slot of packets from all active flows; finished flows are
  /// retired.
  void emit(std::vector<Arrival>& out, fmnet::Rng& rng);
  std::size_t active_flows() const { return flows_.size(); }

 private:
  std::vector<Flow> flows_;
};

/// Parameters for the websearch workload.
struct WebsearchConfig {
  /// New-flow arrival rate (flows per slot, Poisson).
  double flow_rate = 0.02;
  /// Bounded-Pareto flow size in packets.
  double size_alpha = 1.2;
  double size_min_pkts = 8;
  double size_max_pkts = 2000;
  /// Flows at or below this size are classed "short" (queue class 0);
  /// larger flows go to class 1 — mirroring the two per-port classes in
  /// the ABM scenario.
  std::int64_t short_flow_threshold = 64;
  double emit_prob = 1.0;
};

/// Heavy-tailed flow workload. Multiple concurrently-active flows to the
/// same egress port oversubscribe it (fan-in) and build queues.
class WebsearchSource : public TrafficSource {
 public:
  WebsearchSource(WebsearchConfig config, std::int32_t num_ports,
                  fmnet::Rng rng);
  void generate(std::int64_t slot, std::vector<Arrival>& out) override;
  std::size_t active_flows() const { return engine_.active_flows(); }

 private:
  WebsearchConfig config_;
  std::int32_t num_ports_;
  fmnet::Rng rng_;
  FlowEngine engine_;
};

/// Parameters for synchronized incast events.
struct IncastConfig {
  /// Event arrival rate (events per slot, Poisson).
  double event_rate = 2e-4;
  /// Fan-in degree: number of simultaneous senders per event.
  std::int32_t fan_in = 32;
  /// Packets per sender.
  std::int64_t pkts_per_sender = 32;
  /// Per-slot emission probability of each sender (<1 stretches the event
  /// over a longer congestion episode, as slower senders would).
  double emit_prob = 1.0;
  std::int32_t queue_class = 1;
};

/// Many-to-one bursts: each event aims fan_in concurrent flows at one
/// uniformly chosen victim port, producing the microbursts the downstream
/// tasks (Table 1 rows d–i) measure.
class IncastSource : public TrafficSource {
 public:
  IncastSource(IncastConfig config, std::int32_t num_ports, fmnet::Rng rng);
  void generate(std::int64_t slot, std::vector<Arrival>& out) override;

  /// Starts one fan-in event at the given victim port immediately (used by
  /// scripted scenarios and tests; Poisson events use the same path).
  void inject_event(std::int32_t victim_port);

 private:
  IncastConfig config_;
  std::int32_t num_ports_;
  fmnet::Rng rng_;
  FlowEngine engine_;
};

/// Superposition of several sources.
class CompositeSource : public TrafficSource {
 public:
  void add(std::unique_ptr<TrafficSource> source);
  void generate(std::int64_t slot, std::vector<Arrival>& out) override;

 private:
  std::vector<std::unique_ptr<TrafficSource>> sources_;
};

/// Builds the paper's evaluation workload (websearch + incast, two classes)
/// for a switch with `num_ports` ports, seeded deterministically.
std::unique_ptr<TrafficSource> make_paper_workload(std::int32_t num_ports,
                                                   std::uint64_t seed);

/// As make_paper_workload, but decouples the destination space from the
/// offered load: arrivals target `num_dsts` uniformly-chosen destinations
/// while rates are scaled as if the switch had `intensity_ports` ports.
/// The fabric layer uses this to let one leaf's hosts address every host
/// in the fabric without multiplying the per-leaf load by the leaf count.
/// make_paper_workload(n, seed) == make_scaled_paper_workload(n, n, seed)
/// bit-for-bit.
std::unique_ptr<TrafficSource> make_scaled_paper_workload(
    std::int32_t num_dsts, std::int32_t intensity_ports, std::uint64_t seed);

}  // namespace fmnet::traffic
