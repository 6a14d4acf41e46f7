#pragma once
// Multi-node packet-level fabric: hop-by-hop forwarding over a Topology
// with per-output-port FIFO queues, finite buffering, and contention
// accounting.
//
// Model (borrowing the hop/contention accounting of NoC cost models):
// every output port owns a serialization clock at the link rate (with
// the fractional-ps carry of sim::SerializationClock, so multi-packet
// flows occupy exactly their whole-message wire time) and a finite FIFO
// of `port_buffer_pkts` slots. A packet reaching a switch whose output
// FIFO is full waits for a slot (credit-based backpressure — contention
// never drops packets; only the fault plan does). Each hop adds
// `hop_latency` (propagation + switch pipeline) after the packet's last
// byte left the port, i.e. store-and-forward. Ejection delivers into the
// attached NIC via NicModel::deliver — every receiver runs the full
// matching/HPU/DMA pipeline.
//
// Reliability: send_reliable runs the same sender-side state machine as
// spin::Link::send_reliable (spin::ReliablePut) end-to-end across the
// fabric — per-packet acks on a lossless return channel (the route's hop
// latencies, no serialization), exponential backoff
// (p4::RetransmitConfig), the completion packet held until all data
// packets are acked, and fault decisions drawn per (msg, pkt, attempt)
// from sim::faults::FaultPlan so the schedule is independent of delivery
// order. The fabric supplies only the route: an attempt crosses every
// hop through pass_port, its retransmit timer starts when its last byte
// leaves the injection port, and a dropped attempt vanishes at ejection
// (a corrupted packet consumes fabric bandwidth until the receiver
// discards it).
// Preconditions are NETDDT_CHECKs naming the route and msg id.
//
// Metrics live in the Fabric's own registry ("fabric.*"), separate from
// the per-NIC registries, so single-link experiments publish none of
// them.
//
// Determinism: routes are oblivious (Topology), port state advances only
// inside engine events, and fault schedules are order-independent — a
// fabric run is a pure function of its config and seeds.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "fabric/topology.hpp"
#include "p4/packet.hpp"
#include "p4/put.hpp"
#include "sim/engine.hpp"
#include "sim/faults/faults.hpp"
#include "sim/metrics.hpp"
#include "spin/cost_model.hpp"
#include "spin/nic.hpp"
#include "spin/reliable.hpp"

namespace netddt::fabric {

struct FabricConfig {
  TopologyConfig topology;
  /// Link rate and packet size come from the endpoint cost model so the
  /// fabric's wires match the NICs they connect.
  spin::CostModel cost;
  /// Per-hop propagation + switch pipeline latency, charged after the
  /// packet's last byte leaves the output port (store-and-forward).
  sim::Time hop_latency = sim::ns(100);
  /// Output-FIFO depth in packets; a full FIFO backpressures the
  /// upstream hop (no contention drops).
  std::uint32_t port_buffer_pkts = 64;
};

class Fabric {
 public:
  Fabric(sim::Engine& engine, const FabricConfig& config);

  /// Attach node `node`'s NIC as the delivery target of its ejection
  /// port. Every node a message is sent to must be attached first.
  void attach(std::uint32_t node, spin::NicModel& nic);

  const Topology& topology() const { return *topo_; }
  const FabricConfig& config() const { return config_; }
  const spin::CostModel& cost() const { return config_.cost; }
  sim::MetricsRegistry& metrics() { return metrics_; }
  const sim::MetricsRegistry& metrics() const { return metrics_; }

  /// One-way latency of the route src -> dst with empty queues: per-hop
  /// serialization of one `bytes`-byte packet plus hop_latency per hop.
  sim::Time base_latency(std::uint32_t src, std::uint32_t dst,
                         std::uint32_t bytes) const;

  /// Inject `packets` (wire order) at `src` for `dst`'s NIC, departing
  /// no earlier than `earliest`; lossless and exactly-once, the
  /// fabric-wide analogue of Link::send (injection serializes behind
  /// src's port, FIFO ports keep the header-first / completion-last
  /// order along the route). The caller keeps the packets and their
  /// data alive until the simulation drains; arrival times are observed
  /// through the destination NIC.
  void send(std::uint32_t src, std::uint32_t dst,
            const std::vector<p4::Packet>& packets, sim::Time earliest);

  /// Reliable put across the fabric (see the lossy-path contract in the
  /// header comment). `plan` must be active(); inert plans should use
  /// send(). `on_complete` fires once with the put's outcome.
  void send_reliable(std::uint32_t src, std::uint32_t dst,
                     const std::vector<p4::Packet>& packets,
                     sim::Time earliest, const sim::faults::FaultPlan& plan,
                     const p4::RetransmitConfig& rc = {},
                     spin::PutCompleteFn on_complete = {});

 private:
  struct Port {
    sim::Time busy_until = 0;
    sim::SerializationClock clock;
    // Departure times (sorted, FIFO) of packets still occupying a
    // buffer slot: a packet holds its slot from admission until its
    // last byte is serialized.
    std::deque<sim::Time> occupants;
  };

  struct Put;  // the fabric's path of the reliable-put machine (fabric.cpp)

  /// Serialize one packet through port `p` no earlier than `at`,
  /// honoring the finite FIFO; returns the time its last byte left the
  /// port.
  sim::Time pass_port(std::uint32_t p, sim::Time at, std::uint32_t bytes);

  /// Lossless hop-by-hop forwarding; delivers into `dst` at ejection.
  void forward(const p4::Packet* pkt, const std::vector<std::uint32_t>* route,
               std::uint32_t hop, sim::Time now, spin::NicModel* dst);

  /// Cached oblivious route (stable storage — forwarding events hold
  /// pointers into the cache).
  const std::vector<std::uint32_t>& route_for(std::uint32_t src,
                                              std::uint32_t dst);

  sim::Engine* engine_;
  FabricConfig config_;
  std::unique_ptr<Topology> topo_;
  std::vector<Port> ports_;
  std::vector<spin::NicModel*> nics_;
  std::vector<std::unique_ptr<std::vector<std::uint32_t>>> routes_;
  std::vector<std::uint32_t> route_index_;  // (src*N+dst) -> routes_ slot
  sim::MetricsRegistry metrics_;

  sim::Counter* pkts_forwarded_;
  sim::Counter* queue_wait_ps_;
  sim::Counter* blocked_;
  sim::Counter* drops_;
  sim::Counter* retransmits_;
  sim::Counter* acks_;
  sim::Counter* put_failures_;
  sim::Gauge* max_queue_depth_;
};

}  // namespace netddt::fabric
