#pragma once
// The one transport: packet-level forwarding over a Topology, with
// per-output-port FIFO queues, finite buffering and contention
// accounting. Single-link runs use the point-to-point topology (see
// point_to_point()); multi-node runs use the fat-tree or the dragonfly.
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
// matching/HPU/DMA pipeline. All times are sim::Time picoseconds.
//
// Reliability: send_reliable runs the sender-side ack/retransmit state
// machine end-to-end across the route — per-packet acks on a lossless
// return channel (the route's hop latencies, no serialization),
// exponential backoff (p4::RetransmitConfig), the completion packet
// held until all data packets are acked, and fault decisions drawn per
// (msg, pkt, attempt) from sim::faults::FaultPlan so the schedule is
// independent of delivery order. Three lossy-path semantics hold on
// every route: an attempt's retransmit timer starts when its last byte
// leaves the injection port, so injection-queue wait never eats the
// budget; the derived timeout budgets a full output FIFO of queueing at
// every hop; and a duplicate copy is serialized through every port like
// any other copy. A dropped copy vanishes at ejection (a corrupted
// packet consumes fabric bandwidth until the receiver discards it).
// Preconditions are NETDDT_CHECKs naming the route and msg id.
//
// Observability: the injection port feeds the destination NIC's tracer
// — the "link" track's wire / retransmit / pkt.drop / put.complete
// records and the blame ledger's sender-queue, wire and retransmit
// intervals (every later hop is wire time) — and a reliable put
// registers "p4.retransmits", "p4.pkts_dropped", "p4.acks",
// "p4.dup_deliveries", "p4.put_failures", "link.wire_bytes" and
// "link.reorder_depth" in the destination NIC's registry, lazily, on the
// node's first reliable put. The Fabric's own registry ("fabric.*")
// counts forwarding, queueing and the protocol fabric-wide.
//
// Determinism: routes are oblivious (Topology), port state advances only
// inside engine events, and fault schedules are order-independent — a
// fabric run is a pure function of its config and seeds.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fabric/topology.hpp"
#include "p4/packet.hpp"
#include "p4/put.hpp"
#include "sim/engine.hpp"
#include "sim/faults/faults.hpp"
#include "sim/metrics.hpp"
#include "spin/cost_model.hpp"
#include "spin/nic.hpp"

namespace netddt::fabric {

/// Fires once per reliable put: when the completion packet is acked
/// (`ok`), or when a packet exhausts its retries (`!ok`; the message
/// never completes).
using PutCompleteFn = std::function<void(sim::Time when, bool ok)>;

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

/// The single link: node 0 sends to node 1 over one wire that
/// serializes at the cost model's line rate and adds its network
/// latency.
FabricConfig point_to_point(const spin::CostModel& cost);

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

  /// Busy-until time of node `node`'s injection port.
  sim::Time port_free(std::uint32_t node) const {
    return ports_[node].busy_until;
  }

  /// Inject `packets` (wire order) at `src` for `dst`'s NIC; lossless
  /// and exactly-once. Packet i departs when the injection port is free,
  /// no earlier than `earliest` or, if given, `ready[i]` (host-issued
  /// sends, outbound pacing); its sender-queue blame counts from
  /// `earliest` either way. Every send from `src` queues behind that one
  /// port, and FIFO ports keep the header-first / completion-last order
  /// along the route. The caller keeps `packets` and their data alive
  /// until `dst`'s NIC reports the message done (its msg-done callback),
  /// or until the simulation drains if it never does: with oblivious
  /// routes and FIFO ports every packet is delivered, and every handler
  /// and DMA write reading its data has landed, before the completion's
  /// signalled write. On a one-hop route the headers are copied at
  /// injection, so only the data must outlive the call.
  void send(std::uint32_t src, std::uint32_t dst,
            std::span<const p4::Packet> packets, sim::Time earliest,
            const std::vector<sim::Time>& ready = {});

  /// Reliable put (see the lossy-path contract in the header comment).
  /// `plan` must be active(); inert plans should use send().
  /// `on_complete` fires once with the put's outcome. The put keeps its
  /// own copy of the packet headers; the caller keeps their data alive
  /// until the simulation drains: a duplicate or retransmitted copy that
  /// reaches the NIC just before the message is done can still run a
  /// handler or an RDMA write after the msg-done callback. Only on a
  /// read-modify-write landing, where the NIC drops every copy after the
  /// first unread, may the data go at msg-done (if the put did not fail).
  void send_reliable(std::uint32_t src, std::uint32_t dst,
                     std::vector<p4::Packet> packets,
                     sim::Time earliest, const sim::faults::FaultPlan& plan,
                     const p4::RetransmitConfig& rc = {},
                     PutCompleteFn on_complete = {});

 private:
  struct Port {
    sim::Time busy_until = 0;
    sim::SerializationClock clock;
    // Departure times (sorted, FIFO) of packets still occupying a
    // buffer slot: a packet holds its slot from admission until its
    // last byte is serialized.
    std::deque<sim::Time> occupants;
  };

  /// One packet's pass through a port: its first and last byte on the
  /// wire.
  struct Pass {
    sim::Time depart;
    sim::Time done;
  };

  /// Where the injection port reports a message to `nic`: the NIC
  /// tracer's "link" track (when events are on) and its blame ledger.
  struct Taps {
    explicit Taps(const spin::NicModel& nic);
    sim::trace::Tracer* tracer = nullptr;
    std::uint32_t track = 0;
    sim::trace::BlameLedger* blame = nullptr;
  };

  /// Protocol counters in a node's NIC registry (registered lazily).
  struct NicCounters {
    sim::Counter* retransmits = nullptr;
    sim::Counter* acks = nullptr;
    sim::Counter* failures = nullptr;
    sim::Counter* dropped = nullptr;
    sim::Counter* dups = nullptr;
    sim::Counter* wire_bytes = nullptr;
    sim::Gauge* reorder_depth = nullptr;
  };

  using Route = std::vector<std::uint32_t>;
  class Put;  // the reliable-put state machine (fabric.cpp)

  /// Serialize one packet through port `p` no earlier than `at`,
  /// honoring the finite FIFO.
  Pass pass_port(std::uint32_t p, sim::Time at, std::uint32_t bytes);

  /// pass_port through `route`'s injection port, recording the "link"
  /// span `span` of packet `index` and sender-queue blame since
  /// `queued`.
  Pass inject(const Route& route, sim::Time at, sim::Time queued,
              const p4::Packet& pkt, const Taps& taps, const char* span,
              std::int64_t index);

  /// `pkt`'s last byte left hop `hop` at `done`: charge wire blame from
  /// `from` until it reaches the next hop, then forward or deliver it.
  void advance(const p4::Packet* pkt, const Route* route, std::uint32_t hop,
               sim::Time from, sim::Time done, spin::NicModel* dst);

  /// Cached oblivious route (stable storage — forwarding events hold
  /// pointers into the cache).
  const Route& route_for(std::uint32_t src, std::uint32_t dst);

  sim::Engine* engine_;
  FabricConfig config_;
  std::unique_ptr<Topology> topo_;
  std::vector<Port> ports_;
  std::vector<spin::NicModel*> nics_;
  std::vector<NicCounters> nic_counters_;
  std::vector<std::unique_ptr<Route>> routes_;
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
