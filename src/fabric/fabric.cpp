#include "fabric/fabric.hpp"

#include <algorithm>
#include <string>

#include "sim/check.hpp"

namespace netddt::fabric {

namespace {

/// "src S -> dst D, msg M": the context every precondition names.
std::string route_context(std::uint32_t src, std::uint32_t dst,
                          const std::vector<p4::Packet>& packets) {
  return "src " + std::to_string(src) + " -> dst " + std::to_string(dst) +
         (packets.empty() ? ", no packets"
                          : ", msg " + std::to_string(packets[0].msg_id));
}

/// Preconditions of send / send_reliable.
void check_send(const std::vector<spin::NicModel*>& nics, std::uint32_t src,
                std::uint32_t dst, const std::vector<p4::Packet>& packets) {
  NETDDT_CHECK(src < nics.size() && dst < nics.size() && src != dst,
               route_context(src, dst, packets) + " on a " +
                   std::to_string(nics.size()) + "-node fabric");
  NETDDT_CHECK(nics[dst] != nullptr, route_context(src, dst, packets) +
                                         ": destination NIC not attached");
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, const FabricConfig& config)
    : engine_(&engine),
      config_(config),
      topo_(make_topology(config.topology)),
      ports_(topo_->port_count()),
      nics_(topo_->nodes(), nullptr),
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

const std::vector<std::uint32_t>& Fabric::route_for(std::uint32_t src,
                                                    std::uint32_t dst) {
  const std::size_t key =
      static_cast<std::size_t>(src) * topo_->nodes() + dst;
  if (route_index_[key] == UINT32_MAX) {
    auto r = std::make_unique<std::vector<std::uint32_t>>();
    topo_->route(src, dst, *r);
    route_index_[key] = static_cast<std::uint32_t>(routes_.size());
    routes_.push_back(std::move(r));
  }
  return *routes_[route_index_[key]];
}

sim::Time Fabric::base_latency(std::uint32_t src, std::uint32_t dst,
                               std::uint32_t bytes) const {
  std::vector<std::uint32_t> r;
  topo_->route(src, dst, r);
  const auto hops = static_cast<sim::Time>(r.size());
  return hops * (sim::transfer_time(std::max<std::uint64_t>(bytes, 1),
                                    config_.cost.line_rate_gbps) +
                 config_.hop_latency);
}

sim::Time Fabric::pass_port(std::uint32_t p, sim::Time at,
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
  return port.busy_until;
}

void Fabric::forward(const p4::Packet* pkt,
                     const std::vector<std::uint32_t>* route,
                     std::uint32_t hop, sim::Time now, spin::NicModel* dst) {
  const sim::Time serialized =
      pass_port((*route)[hop], now, pkt->payload_bytes);
  const sim::Time arrival = serialized + config_.hop_latency;
  if (hop + 1 < route->size()) {
    engine_->schedule_at(arrival, [this, pkt, route, hop, dst] {
      forward(pkt, route, hop + 1, engine_->now(), dst);
    });
  } else {
    engine_->schedule_at(arrival, [dst, pkt] { dst->deliver(*pkt); });
  }
}

void Fabric::send(std::uint32_t src, std::uint32_t dst,
                  const std::vector<p4::Packet>& packets,
                  sim::Time earliest) {
  check_send(nics_, src, dst, packets);
  const std::vector<std::uint32_t>& route = route_for(src, dst);
  for (const p4::Packet& p : packets) {
    forward(&p, &route, 0, earliest, nics_[dst]);
  }
}

// --- Reliable transport: the fabric's path of spin::ReliablePut -----------

struct Fabric::Put final : spin::ReliablePut {
  Fabric* fab;
  const std::vector<std::uint32_t>* route;
  spin::NicModel* dst;

  Put(Fabric* f, const std::vector<std::uint32_t>& r, spin::NicModel* d,
      const std::vector<p4::Packet>& packets,
      const sim::faults::FaultPlan& plan, const p4::RetransmitConfig& rc,
      spin::PutCompleteFn on_complete)
      : ReliablePut(*f->engine_, packets, plan, rc, std::move(on_complete),
                    {f->retransmits_, f->acks_, f->put_failures_}),
        fab(f),
        route(&r),
        dst(d) {}

  sim::Time hops() const { return static_cast<sim::Time>(route->size()); }

  // Derived timeout, measured from the attempt's injection departure:
  // forward propagation, a full output FIFO of queueing at every
  // downstream hop, the worst-case fault skew, and the ack's return. An
  // undropped attempt on a congested fabric is then normally acked
  // before its timer fires; a spurious retransmit remains safe — the NIC
  // gates duplicates.
  sim::Time derived_timeout() const override {
    const sim::Time slot = fab->cost().pkt_interval();
    return hops() * (fab->config_.hop_latency + slot) +
           hops() * fab->config_.port_buffer_pkts * slot +
           (plan().config().reorder_window + 2) * slot + ack_latency();
  }

  // Acks return over the route's hop latencies, without serialization.
  sim::Time ack_latency() const override {
    return hops() * fab->config_.hop_latency;
  }

  // The timer anchor is the end of serialization at the injection port,
  // so injection-queue wait (unbounded under open-loop load) never eats
  // the timeout budget.
  sim::Time send_attempt(std::uint64_t idx, std::uint32_t attempt,
                         sim::Time at, const sim::faults::FaultDecision& d,
                         sim::Time /*timeout*/) override {
    const sim::Time slot = fab->cost().pkt_interval();
    const sim::Time departed = forward(idx, attempt, /*is_dup=*/false, 0, at,
                                       d.drop, d.delay_slots * slot);
    if (!d.drop && d.duplicate) {
      forward(idx, attempt, /*is_dup=*/true, 0, at, /*drop=*/false,
              (d.delay_slots + d.dup_delay_slots) * slot);
    }
    return departed;
  }

  /// Move one copy through hop `hop` at `now`; `skew` is the fault
  /// plan's reorder/duplicate delay, applied at ejection, where a
  /// dropped copy vanishes after consuming every hop's bandwidth (like a
  /// corrupted packet the receiver discards). Returns the time the
  /// copy's last byte leaves the `hop` port.
  sim::Time forward(std::uint64_t idx, std::uint32_t attempt, bool is_dup,
                    std::uint32_t hop, sim::Time now, bool drop,
                    sim::Time skew) {
    const sim::Time serialized =
        fab->pass_port((*route)[hop], now, packet(idx).payload_bytes);
    const sim::Time arrival = serialized + fab->config_.hop_latency;
    if (hop + 1 < route->size()) {
      fab->engine_->schedule_at(
          arrival, [self = std::static_pointer_cast<Put>(shared_from_this()),
                    idx, attempt, is_dup, hop, drop, skew] {
            self->forward(idx, attempt, is_dup, hop + 1,
                          self->engine().now(), drop, skew);
          });
    } else if (drop) {
      fab->drops_->add(1);
    } else {
      arrive_at(arrival + skew, idx, attempt, is_dup);
    }
    return serialized;
  }

  void deliver(const p4::Packet& pkt, std::uint64_t /*idx*/) override {
    dst->deliver(pkt);
  }
};

void Fabric::send_reliable(std::uint32_t src, std::uint32_t dst,
                           const std::vector<p4::Packet>& packets,
                           sim::Time earliest,
                           const sim::faults::FaultPlan& plan,
                           const p4::RetransmitConfig& rc,
                           spin::PutCompleteFn on_complete) {
  check_send(nics_, src, dst, packets);
  NETDDT_CHECK(!packets.empty(), route_context(src, dst, packets));
  NETDDT_CHECK(plan.active(), route_context(src, dst, packets) +
                                  ": inert plans should use the lossless "
                                  "send()");
  auto put = std::make_shared<Put>(this, route_for(src, dst), nics_[dst],
                                   packets, plan, rc, std::move(on_complete));
  put->start(earliest);
}

}  // namespace netddt::fabric
