#pragma once
// Network link: one sender port that serializes packets onto the wire at
// line rate and delivers them to the target NIC after the network
// latency. Every send on a Link queues behind that port, whichever call
// made it; concurrent senders on separate ports use one Link each. An
// open-loop driver sending as messages arrive thus models a shared
// injection port where the wire becomes the bottleneck.
//
// Three calls. send and send_shuffled are lossless and exactly-once; the
// header arrives first and the completion packet last, and send_shuffled
// permutes the payload packets in between to exercise the out-of-order
// paths of the offload strategies (segment resets, RW-CP checkpoint
// rollback). send_reliable passes each attempt through a seeded
// sim::faults::FaultPlan (drop, duplicate, reorder skew) and runs the
// shared sender-side machine spin::ReliablePut (spin/reliable.hpp): the
// completion packet is held until every other packet is acked, and
// delivery becomes at-least-once (copies carry Packet::retransmit /
// Packet::dup). Acks return on a lossless channel in one net_latency;
// the derived timeout exceeds a round trip plus the worst-case reorder
// skew, so an attempt in flight is never retransmitted spuriously. The
// caller keeps the packets and their data alive until the simulation
// drains.
//
// Reliability metrics ("p4.retransmits", "p4.pkts_dropped", "p4.acks",
// "p4.dup_deliveries", "p4.put_failures", "link.wire_bytes",
// "link.reorder_depth") are registered in the target NIC's registry
// lazily — a binary that never sends reliably publishes none of them.
// All times are sim::Time picoseconds.

#include <cstdint>
#include <vector>

#include "p4/packet.hpp"
#include "p4/put.hpp"
#include "sim/engine.hpp"
#include "sim/faults/faults.hpp"
#include "sim/rng.hpp"
#include "spin/cost_model.hpp"
#include "spin/nic.hpp"
#include "spin/reliable.hpp"

namespace netddt::spin {

class Link {
 public:
  Link(sim::Engine& engine, NicModel& target, const CostModel& cost)
      : engine_(&engine), target_(&target), cost_(&cost) {}

  /// Inject `packets` (wire order). Packet i departs when the port is
  /// free, no earlier than `start` or, if given, `ready[i]` (streaming
  /// puts / outbound-sPIN pacing), and arrives one network latency after
  /// its last byte. Returns the arrival time of the last packet.
  sim::Time send(const std::vector<p4::Packet>& packets, sim::Time start,
                 const std::vector<sim::Time>& ready = {});

  /// Same as send(), with payload packets shuffled within a reordering
  /// window of `window` slots (header stays first, completion stays
  /// last).
  sim::Time send_shuffled(const std::vector<p4::Packet>& packets,
                          sim::Time start, std::uint32_t window,
                          std::uint64_t seed);

  /// Send `packets` reliably through `plan`, no earlier than `start`.
  /// `plan` must be active(); inert plans use the cheaper send().
  void send_reliable(const std::vector<p4::Packet>& packets, sim::Time start,
                     const sim::faults::FaultPlan& plan,
                     const p4::RetransmitConfig& rc = {},
                     PutCompleteFn on_complete = {});

  /// Busy-until time of the sender port.
  sim::Time port_free() const { return port_free_; }

 private:
  struct Put;  // the link's path of the reliable-put machine (link.cpp)

  sim::Time send_in_order(const std::vector<const p4::Packet*>& order,
                          sim::Time start,
                          const std::vector<sim::Time>& ready);
  /// Serialize one packet through the port no earlier than `at`; returns
  /// its departure (port_free_ is then its last byte on the wire).
  sim::Time occupy_port(sim::Time at, std::uint32_t bytes);

  sim::Engine* engine_;
  NicModel* target_;
  const CostModel* cost_;
  sim::Time port_free_ = 0;  // the sender port's busy-until clock
  // Fractional-ps serialization carry of the port, so N packets occupy
  // exactly the whole-message wire time (sim::SerializationClock).
  sim::SerializationClock port_clock_;
};

}  // namespace netddt::spin
