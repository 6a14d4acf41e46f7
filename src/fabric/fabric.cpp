#include "fabric/fabric.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/check.hpp"

namespace netddt::fabric {

namespace {

using sim::trace::BlameStage;

/// "src S -> dst D, msg M": the context every precondition names.
std::string route_context(std::uint32_t src, std::uint32_t dst,
                          std::span<const p4::Packet> packets) {
  return "src " + std::to_string(src) + " -> dst " + std::to_string(dst) +
         (packets.empty() ? ", no packets"
                          : ", msg " + std::to_string(packets[0].msg_id));
}

/// Preconditions of send / send_reliable.
void check_send(const std::vector<spin::NicModel*>& nics, std::uint32_t src,
                std::uint32_t dst, std::span<const p4::Packet> packets) {
  NETDDT_CHECK(src < nics.size() && dst < nics.size() && src != dst,
               route_context(src, dst, packets) + " on a " +
                   std::to_string(nics.size()) + "-node fabric");
  NETDDT_CHECK(nics[dst] != nullptr, route_context(src, dst, packets) +
                                         ": destination NIC not attached");
}

sim::trace::BlameLedger* blame_of(const spin::NicModel& nic) {
  return nic.tracer() != nullptr ? nic.tracer()->blame() : nullptr;
}

}  // namespace

Fabric::Taps::Taps(const spin::NicModel& nic) : blame(blame_of(nic)) {
  if (nic.tracer() != nullptr && nic.tracer()->events_on()) {
    tracer = nic.tracer();
    track = tracer->track("link");
  }
}

FabricConfig point_to_point(const spin::CostModel& cost) {
  FabricConfig c;
  c.topology.kind = TopologyKind::kPointToPoint;
  c.topology.nodes = 2;
  c.cost = cost;
  c.hop_latency = cost.net_latency;
  return c;
}

Fabric::Fabric(sim::Engine& engine, const FabricConfig& config)
    : engine_(&engine),
      config_(config),
      topo_(make_topology(config.topology)),
      ports_(topo_->port_count()),
      nics_(topo_->nodes(), nullptr),
      nic_counters_(topo_->nodes()),
      route_index_(static_cast<std::size_t>(topo_->nodes()) * topo_->nodes(),
                   UINT32_MAX) {
  pkts_forwarded_ = &metrics_.counter("fabric.pkts");
  queue_wait_ps_ = &metrics_.counter("fabric.queue_wait_ps");
  blocked_ = &metrics_.counter("fabric.blocked");
  drops_ = &metrics_.counter("fabric.drops");
  retransmits_ = &metrics_.counter("fabric.retransmits");
  acks_ = &metrics_.counter("fabric.acks");
  put_failures_ = &metrics_.counter("fabric.put_failures");
  max_queue_depth_ = &metrics_.gauge("fabric.queue_depth_peak");
}

void Fabric::attach(std::uint32_t node, spin::NicModel& nic) {
  NETDDT_CHECK(node < nics_.size(),
               "attach: node " + std::to_string(node) + " of a " +
                   std::to_string(nics_.size()) + "-node fabric");
  nics_[node] = &nic;
}

const Fabric::Route& Fabric::route_for(std::uint32_t src, std::uint32_t dst) {
  const std::size_t key =
      static_cast<std::size_t>(src) * topo_->nodes() + dst;
  if (route_index_[key] == UINT32_MAX) {
    auto r = std::make_unique<Route>();
    topo_->route(src, dst, *r);
    route_index_[key] = static_cast<std::uint32_t>(routes_.size());
    routes_.push_back(std::move(r));
  }
  return *routes_[route_index_[key]];
}

Fabric::Pass Fabric::pass_port(std::uint32_t p, sim::Time at,
                               std::uint32_t bytes) {
  Port& port = ports_[p];
  // Slots freed by packets fully serialized before `at`.
  while (!port.occupants.empty() && port.occupants.front() <= at) {
    port.occupants.pop_front();
  }
  sim::Time admit = at;
  if (port.occupants.size() >= config_.port_buffer_pkts) {
    // FIFO full: backpressure — admission waits until enough earlier
    // packets have left that a slot frees up.
    admit = port.occupants[port.occupants.size() - config_.port_buffer_pkts];
    blocked_->add(1);
    while (!port.occupants.empty() && port.occupants.front() <= admit) {
      port.occupants.pop_front();
    }
  }
  const sim::Time depart = std::max(admit, port.busy_until);
  const sim::Time on_wire = port.clock.advance(
      std::max<std::uint64_t>(bytes, 1), config_.cost.line_rate_gbps);
  port.busy_until = depart + on_wire;
  port.occupants.push_back(port.busy_until);
  pkts_forwarded_->add(1);
  queue_wait_ps_->add(static_cast<std::uint64_t>(depart - at));
  const auto depth = static_cast<std::int64_t>(port.occupants.size());
  if (depth > max_queue_depth_->value()) max_queue_depth_->set(depth);
  return {depart, port.busy_until};
}

Fabric::Pass Fabric::inject(const Route& route, sim::Time at,
                            sim::Time queued, const p4::Packet& pkt,
                            const Taps& taps, const char* span,
                            std::int64_t index) {
  const Pass pass = pass_port(route[0], at, pkt.payload_bytes);
  if (taps.tracer != nullptr) {
    taps.tracer->complete(taps.track, span, pass.depart, pass.done,
                          static_cast<std::int64_t>(pkt.msg_id), index);
  }
  if (taps.blame != nullptr) {
    // Port queueing and pacing waits (sender-side production) count as
    // sender queue.
    taps.blame->interval(pkt.msg_id, BlameStage::kSenderQueue, queued,
                         pass.depart);
  }
  return pass;
}

void Fabric::advance(const p4::Packet* pkt, const Route* route,
                     std::uint32_t hop, sim::Time from, sim::Time done,
                     spin::NicModel* dst) {
  const sim::Time arrival = done + config_.hop_latency;
  if (sim::trace::BlameLedger* blame = blame_of(*dst)) {
    blame->interval(pkt->msg_id, BlameStage::kWire, from, arrival);
  }
  if (hop + 1 < route->size()) {
    engine_->schedule_at(arrival, [this, pkt, route, hop, dst] {
      const sim::Time now = engine_->now();
      advance(pkt, route, hop + 1, now,
              pass_port((*route)[hop + 1], now, pkt->payload_bytes).done,
              dst);
    });
  } else {
    engine_->schedule_at(arrival, [dst, pkt = *pkt] { dst->deliver(pkt); });
  }
}

void Fabric::send(std::uint32_t src, std::uint32_t dst,
                  std::span<const p4::Packet> packets, sim::Time earliest,
                  const std::vector<sim::Time>& ready) {
  check_send(nics_, src, dst, packets);
  NETDDT_CHECK(ready.empty() || ready.size() == packets.size(),
               route_context(src, dst, packets) + ": " +
                   std::to_string(ready.size()) + " ready times for " +
                   std::to_string(packets.size()) + " packets");
  const Route& route = route_for(src, dst);
  spin::NicModel* nic = nics_[dst];
  const Taps taps(*nic);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const p4::Packet& pkt = packets[i];
    const Pass pass =
        inject(route, ready.empty() ? earliest : ready[i], earliest, pkt,
               taps, "wire",
               static_cast<std::int64_t>(pkt.offset / cost().pkt_payload));
    advance(&pkt, &route, 0, pass.depart, pass.done, nic);
  }
}

// --- Reliable transport ----------------------------------------------------
// One ack/retransmit machine per put: p4::ReliablePutState, one
// FaultPlan::decide per attempt, a timer per attempt that retransmits an
// unacked packet (p4::RetransmitConfig backoff) or fails the put after
// rc.max_retries, and release of the completion packet once every data
// packet is acked. Each copy reaching the NIC is built at arrival from
// (index, attempt, dup), flags set. Same-time events fire in scheduling
// order: an attempt's delivery before its duplicate, the timer after
// both. Engine callbacks keep the put, and with it its own copy of the
// packet headers, alive; the payload bytes the headers point to stay the
// caller's (see send_reliable).

class Fabric::Put : public std::enable_shared_from_this<Put> {
 public:
  Put(Fabric& fab, const Route& route, spin::NicModel& dst,
      const NicCounters& nic_counters, std::vector<p4::Packet> packets,
      const sim::faults::FaultPlan& plan, const p4::RetransmitConfig& rc,
      PutCompleteFn on_complete)
      : fab_(&fab),
        route_(&route),
        dst_(&dst),
        nc_(&nic_counters),
        packets_(std::move(packets)),
        plan_(plan),
        rc_(rc),
        on_complete_(std::move(on_complete)),
        taps_(dst),
        state_(packets_.size()) {
    const sim::Time hops = static_cast<sim::Time>(route.size());
    const sim::Time slot = fab.cost().pkt_interval();
    ack_latency_ = hops * fab.config_.hop_latency;
    // Derived timeout, measured from the end of the attempt's
    // serialization at the injection port: forward propagation, a full
    // output FIFO of queueing at every hop, the worst-case fault skew,
    // and the ack's return. An undropped attempt on a congested fabric
    // is then normally acked before its timer fires; a spurious
    // retransmit remains safe — the NIC gates duplicates.
    base_timeout_ = rc.timeout > 0
                        ? rc.timeout
                        : hops * (fab.config_.hop_latency + slot) +
                              hops * fab.config_.port_buffer_pkts * slot +
                              (plan.config().reorder_window + 2) * slot +
                              ack_latency_;
  }
  Put(const Put&) = delete;  // engine callbacks hold it
  Put& operator=(const Put&) = delete;

  /// Send the first attempts, no earlier than `at`. Call once.
  void start(sim::Time at) {
    const std::size_t n = packets_.size();
    if (n == 1) {
      // Single-packet put: the lone packet is both data and completion.
      completion_sent_ = true;
      transmit(0, 0, at);
      return;
    }
    for (std::size_t i = 0; i + 1 < n; ++i) transmit(i, 0, at);
  }

 private:
  const p4::Packet& packet(std::uint64_t idx) const {
    return packets_[idx];
  }

  void transmit(std::uint64_t idx, std::uint32_t attempt, sim::Time at) {
    state_.record_attempt(static_cast<std::size_t>(idx));
    const sim::Time timeout = rc_.timeout_for(attempt, base_timeout_);
    const sim::faults::FaultDecision d = plan_.decide(idx, attempt);
    const sim::Time slot = fab_->cost().pkt_interval();
    const Pass sent = forward(idx, attempt, /*is_dup=*/false, 0, at, d.drop,
                              d.delay_slots * slot);
    if (!d.drop && d.duplicate) {
      nc_->dups->add(1);
      forward(idx, attempt, /*is_dup=*/true, 0, at, /*drop=*/false,
              (d.delay_slots + d.dup_delay_slots) * slot);
    }
    if (taps_.blame != nullptr) {
      // The attempt's unacked window: whenever nothing deeper is active
      // (every copy dropped, backoff running), the message is waiting on
      // the reliable transport.
      taps_.blame->interval(packet(idx).msg_id, BlameStage::kRetransmit,
                            sent.depart, sent.done + timeout);
    }
    // The timer starts when the attempt's last byte leaves the injection
    // port, so injection-queue wait (unbounded under open-loop load)
    // never eats the timeout budget.
    fab_->engine_->schedule_at(
        sent.done + timeout, [self = shared_from_this(), idx, attempt] {
          Put& p = *self;
          if (p.done_ || p.state_.acked(static_cast<std::size_t>(idx))) {
            return;
          }
          if (attempt + 1 > p.rc_.max_retries) {
            p.fail();
            return;
          }
          p.fab_->retransmits_->add(1);
          p.nc_->retransmits->add(1);
          p.transmit(idx, attempt + 1, p.fab_->engine_->now());
        });
  }

  /// Move one copy through hop `hop` at `now`; `skew` is the fault
  /// plan's reorder/duplicate delay, applied at ejection, where a
  /// dropped copy vanishes after consuming every hop's bandwidth.
  /// Returns the copy's pass through the `hop` port.
  Pass forward(std::uint64_t idx, std::uint32_t attempt, bool is_dup,
               std::uint32_t hop, sim::Time now, bool drop, sim::Time skew) {
    const p4::Packet& pkt = packet(idx);
    const auto index = static_cast<std::int64_t>(idx);
    const Pass pass =
        hop == 0 ? fab_->inject(*route_, now, now, pkt, taps_,
                                attempt == 0 ? "wire" : "retransmit", index)
                 : fab_->pass_port((*route_)[hop], now, pkt.payload_bytes);
    if (hop == 0) nc_->wire_bytes->add(pkt.payload_bytes);
    const sim::Time from = hop == 0 ? pass.depart : now;
    const bool last = hop + 1 == route_->size();
    sim::Time arrival = pass.done + fab_->config_.hop_latency;
    if (last && drop) {
      // Only the time on the wire is wire blame; the wait for the
      // retransmit timer is the attempt's kRetransmit interval.
      arrival = pass.done;
      fab_->drops_->add(1);
      nc_->dropped->add(1);
      if (taps_.tracer != nullptr) {
        taps_.tracer->instant(taps_.track, "pkt.drop", pass.done,
                              static_cast<std::int64_t>(pkt.msg_id), index);
      }
    } else if (last) {
      arrival += skew;
    }
    if (taps_.blame != nullptr) {
      taps_.blame->interval(pkt.msg_id, BlameStage::kWire, from, arrival);
    }
    if (!last) {
      fab_->engine_->schedule_at(arrival, [self = shared_from_this(), idx,
                                           attempt, is_dup, hop, drop, skew] {
        self->forward(idx, attempt, is_dup, hop + 1,
                      self->fab_->engine_->now(), drop, skew);
      });
    } else if (!drop) {
      arrive(arrival, idx, attempt, is_dup);
    }
    return pass;
  }

  /// Schedule a copy of attempt `attempt` of packet `idx` to reach the
  /// NIC at `when`, and its ack to return.
  void arrive(sim::Time when, std::uint64_t idx, std::uint32_t attempt,
              bool is_dup) {
    fab_->engine_->schedule_at(when, [self = shared_from_this(), idx,
                                      attempt, is_dup] {
      Put& p = *self;
      p4::Packet pkt = p.packet(idx);
      pkt.retransmit = attempt > 0;
      pkt.dup = is_dup;
      // Receiver-side reorder observation: distance of each arrival
      // behind the highest packet index seen so far.
      if (p.any_seen_ && idx < p.max_seen_idx_) {
        p.nc_->reorder_depth->set(
            static_cast<std::int64_t>(p.max_seen_idx_ - idx));
      } else {
        p.max_seen_idx_ = idx;
        p.any_seen_ = true;
        p.nc_->reorder_depth->set(0);
      }
      p.dst_->deliver(pkt);
      const sim::Time now = p.fab_->engine_->now();
      if (p.taps_.blame != nullptr) {
        // The ack's flight time: the sender holds the completion packet
        // back until it lands, so when no receiver-side stage is active
        // the message is waiting on the transport.
        p.taps_.blame->interval(pkt.msg_id, BlameStage::kRetransmit, now,
                           now + p.ack_latency_);
      }
      // Ack on the lossless return channel.
      p.fab_->engine_->schedule(p.ack_latency_,
                                [self, idx] { self->on_ack(idx); });
    });
  }

  void on_ack(std::uint64_t idx) {
    fab_->acks_->add(1);
    nc_->acks->add(1);
    if (done_ || !state_.mark_acked(static_cast<std::size_t>(idx))) return;
    const sim::Time now = fab_->engine_->now();
    const std::uint64_t last = packets_.size() - 1;
    if (idx == last) {
      // Completion packet acked: the put is complete.
      done_ = true;
      if (taps_.tracer != nullptr) {
        taps_.tracer->instant(taps_.track, "put.complete", now,
                              static_cast<std::int64_t>(packet(0).msg_id));
      }
      if (on_complete_) on_complete_(now, true);
      return;
    }
    if (!completion_sent_ && state_.data_acked()) {
      // Every data packet acked: release the held-back completion packet.
      completion_sent_ = true;
      transmit(last, 0, now);
    }
  }

  void fail() {
    done_ = true;
    state_.mark_failed();
    fab_->put_failures_->add(1);
    nc_->failures->add(1);
    if (on_complete_) on_complete_(fab_->engine_->now(), false);
  }

  Fabric* fab_;
  const Route* route_;
  spin::NicModel* dst_;
  const NicCounters* nc_;
  std::vector<p4::Packet> packets_;  // headers; data stays the caller's
  sim::faults::FaultPlan plan_;
  p4::RetransmitConfig rc_;
  PutCompleteFn on_complete_;
  Taps taps_;
  sim::Time ack_latency_ = 0;
  sim::Time base_timeout_ = 0;
  p4::ReliablePutState state_;
  std::uint64_t max_seen_idx_ = 0;
  bool any_seen_ = false;
  bool completion_sent_ = false;
  bool done_ = false;
};

void Fabric::send_reliable(std::uint32_t src, std::uint32_t dst,
                           std::vector<p4::Packet> packets,
                           sim::Time earliest,
                           const sim::faults::FaultPlan& plan,
                           const p4::RetransmitConfig& rc,
                           PutCompleteFn on_complete) {
  check_send(nics_, src, dst, packets);
  NETDDT_CHECK(!packets.empty(), route_context(src, dst, packets));
  NETDDT_CHECK(plan.active(), route_context(src, dst, packets) +
                                  ": inert plans should use the lossless "
                                  "send()");
  NicCounters& nc = nic_counters_[dst];
  if (nc.retransmits == nullptr) {
    sim::MetricsRegistry& m = nics_[dst]->metrics();
    nc = {&m.counter("p4.retransmits"),    &m.counter("p4.acks"),
          &m.counter("p4.put_failures"),   &m.counter("p4.pkts_dropped"),
          &m.counter("p4.dup_deliveries"), &m.counter("link.wire_bytes"),
          &m.gauge("link.reorder_depth")};
  }
  auto put = std::make_shared<Put>(*this, route_for(src, dst), *nics_[dst],
                                   nc, std::move(packets), plan, rc,
                                   std::move(on_complete));
  put->start(earliest);
}

}  // namespace netddt::fabric
