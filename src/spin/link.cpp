#include "spin/link.hpp"

#include <algorithm>
#include <string>

#include "sim/check.hpp"

namespace netddt::spin {

namespace {

std::string msg_context(const std::vector<p4::Packet>& packets) {
  return packets.empty() ? "empty packet list"
                         : "msg " + std::to_string(packets.front().msg_id);
}

}  // namespace

sim::Time Link::occupy_port(sim::Time at, std::uint32_t bytes) {
  const sim::Time depart = std::max(at, port_free_);
  port_free_ = depart + port_clock_.advance(
                            std::max<std::uint64_t>(bytes, 1),  // header flit
                            cost_->line_rate_gbps);
  return depart;
}

sim::Time Link::send_in_order(const std::vector<const p4::Packet*>& order,
                              sim::Time start,
                              const std::vector<sim::Time>& ready) {
  sim::trace::Tracer* tracer = target_->tracer();
  const bool trace = tracer != nullptr && tracer->events_on();
  const std::uint32_t link_track = trace ? tracer->track("link") : 0;
  sim::trace::BlameLedger* blame =
      tracer != nullptr ? tracer->blame() : nullptr;
  sim::Time last_arrival = start;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const p4::Packet& pkt = *order[i];
    const sim::Time depart =
        occupy_port(ready.empty() ? start : ready[i], pkt.payload_bytes);
    const sim::Time arrival = port_free_ + cost_->net_latency;
    last_arrival = std::max(last_arrival, arrival);
    if (trace) {
      // Serialization window of this packet on the wire.
      tracer->complete(
          link_track, "wire", depart, port_free_,
          static_cast<std::int64_t>(pkt.msg_id),
          static_cast<std::int64_t>(pkt.offset / cost_->pkt_payload));
    }
    if (blame != nullptr) {
      // Port queueing and pacing waits (sender-side production) count
      // as sender queue.
      blame->interval(pkt.msg_id, sim::trace::BlameStage::kSenderQueue,
                      start, depart);
      blame->interval(pkt.msg_id, sim::trace::BlameStage::kWire, depart,
                      arrival);
    }
    engine_->schedule_at(arrival, [nic = target_, pkt] { nic->deliver(pkt); });
  }
  return last_arrival;
}

sim::Time Link::send(const std::vector<p4::Packet>& packets, sim::Time start,
                     const std::vector<sim::Time>& ready) {
  NETDDT_CHECK(ready.empty() || ready.size() == packets.size(),
               msg_context(packets) + ": " + std::to_string(ready.size()) +
                   " ready times for " + std::to_string(packets.size()) +
                   " packets");
  std::vector<const p4::Packet*> order;
  order.reserve(packets.size());
  for (const auto& p : packets) order.push_back(&p);
  return send_in_order(order, start, ready);
}

sim::Time Link::send_shuffled(const std::vector<p4::Packet>& packets,
                              sim::Time start, std::uint32_t window,
                              std::uint64_t seed) {
  std::vector<const p4::Packet*> order;
  order.reserve(packets.size());
  for (const auto& p : packets) order.push_back(&p);
  if (order.size() > 2 && window > 1) {
    // Shuffle payload packets (indices 1..n-2) within sliding windows;
    // the header stays first and the completion stays last.
    sim::Rng rng(seed);
    const std::size_t lo = 1, hi = order.size() - 1;
    for (std::size_t w = lo; w < hi; w += window) {
      const std::size_t end = std::min<std::size_t>(w + window, hi);
      for (std::size_t i = end - 1; i > w; --i) {
        const std::size_t j = w + rng.below(i - w + 1);
        std::swap(order[i], order[j]);
      }
    }
  }
  return send_in_order(order, start, {});
}

// --- Reliable transport: the link's path of ReliablePut --------------------
// One wire plus net_latency, feeding the tracer, the blame ledger and the
// lazily registered p4.* / link.* metrics.

struct Link::Put final : ReliablePut {
  Link* link;
  sim::Counter* dropped;
  sim::Counter* dups;
  sim::Counter* wire_bytes;
  sim::Gauge* reorder_depth;
  sim::trace::Tracer* tracer = nullptr;  // set when events are on
  std::uint32_t link_track = 0;
  sim::trace::BlameLedger* blame = nullptr;
  // Receiver-side reorder observation: distance of each arrival behind
  // the highest packet index seen so far.
  std::uint64_t max_seen_idx = 0;
  bool any_seen = false;

  Put(Link* l, const std::vector<p4::Packet>& packets,
      const sim::faults::FaultPlan& plan, const p4::RetransmitConfig& rc,
      PutCompleteFn on_complete)
      : ReliablePut(*l->engine_, packets, plan, rc, std::move(on_complete),
                    counters(l->target_->metrics())),
        link(l) {
    sim::MetricsRegistry& m = l->target_->metrics();
    dropped = &m.counter("p4.pkts_dropped");
    dups = &m.counter("p4.dup_deliveries");
    wire_bytes = &m.counter("link.wire_bytes");
    reorder_depth = &m.gauge("link.reorder_depth");
    sim::trace::Tracer* t = l->target_->tracer();
    if (t != nullptr && t->events_on()) {
      tracer = t;
      link_track = t->track("link");
    }
    if (t != nullptr) blame = t->blame();
  }

  static Counters counters(sim::MetricsRegistry& m) {
    return {&m.counter("p4.retransmits"), &m.counter("p4.acks"),
            &m.counter("p4.put_failures")};
  }

  // Derived timeout: one full round trip (serialization + two network
  // latencies) plus the worst-case reorder skew of the packet and of its
  // ack, so an undropped attempt is always acked before its timer fires.
  sim::Time derived_timeout() const override {
    const CostModel& c = *link->cost_;
    return 2 * c.net_latency +
           (plan().config().reorder_window + 2) * c.pkt_interval() +
           c.wire_time(c.pkt_payload);
  }

  sim::Time ack_latency() const override { return link->cost_->net_latency; }

  // The timer anchor is the attempt's departure from the port.
  sim::Time send_attempt(std::uint64_t idx, std::uint32_t attempt,
                         sim::Time at, const sim::faults::FaultDecision& d,
                         sim::Time timeout) override {
    const p4::Packet& src = packet(idx);
    const CostModel& c = *link->cost_;
    const sim::Time depart = link->occupy_port(at, src.payload_bytes);
    const sim::Time serialized = link->port_free_;
    wire_bytes->add(src.payload_bytes);
    const auto msg = static_cast<std::int64_t>(src.msg_id);
    const auto pkt = static_cast<std::int64_t>(idx);
    if (tracer != nullptr) {
      tracer->complete(link_track, attempt == 0 ? "wire" : "retransmit",
                       depart, serialized, msg, pkt);
    }
    if (blame != nullptr) {
      blame->interval(src.msg_id, sim::trace::BlameStage::kSenderQueue, at,
                      depart);
    }

    const sim::Time slot = c.pkt_interval();
    if (d.drop) {
      dropped->add(1);
      if (tracer != nullptr) {
        tracer->instant(link_track, "pkt.drop", serialized, msg, pkt);
      }
      if (blame != nullptr) {
        // Only the serialization window is wire time; the wait for the
        // retransmit timer is covered by the kRetransmit guard below.
        blame->interval(src.msg_id, sim::trace::BlameStage::kWire, depart,
                        serialized);
      }
    } else {
      const sim::Time arrival =
          serialized + c.net_latency + d.delay_slots * slot;
      arrive_at(arrival, idx, attempt, /*is_dup=*/false);
      if (blame != nullptr) {
        blame->interval(src.msg_id, sim::trace::BlameStage::kWire, depart,
                        arrival);
      }
      if (d.duplicate) {
        dups->add(1);
        arrive_at(arrival + d.dup_delay_slots * slot, idx, attempt,
                  /*is_dup=*/true);
      }
    }
    if (blame != nullptr) {
      // The attempt's unacked window: whenever nothing deeper is active
      // (every copy dropped, backoff running), the message is waiting on
      // the reliable transport.
      blame->interval(src.msg_id, sim::trace::BlameStage::kRetransmit,
                      depart, depart + timeout);
    }
    return depart;
  }

  void deliver(const p4::Packet& pkt, std::uint64_t idx) override {
    if (any_seen && idx < max_seen_idx) {
      reorder_depth->set(static_cast<std::int64_t>(max_seen_idx - idx));
    } else {
      max_seen_idx = idx;
      any_seen = true;
      reorder_depth->set(0);
    }
    link->target_->deliver(pkt);
    if (blame != nullptr) {
      // The ack's flight time: the sender holds the completion packet
      // back until it lands, so when no receiver-side stage is active
      // the message is waiting on the transport.
      const sim::Time now = engine().now();
      blame->interval(pkt.msg_id, sim::trace::BlameStage::kRetransmit, now,
                      now + link->cost_->net_latency);
    }
  }

  void completed() override {
    if (tracer != nullptr) {
      tracer->instant(link_track, "put.complete", engine().now(),
                      static_cast<std::int64_t>(packet(0).msg_id));
    }
  }
};

void Link::send_reliable(const std::vector<p4::Packet>& packets,
                         sim::Time start,
                         const sim::faults::FaultPlan& plan,
                         const p4::RetransmitConfig& rc,
                         PutCompleteFn on_complete) {
  NETDDT_CHECK(!packets.empty(), "send_reliable: " + msg_context(packets));
  NETDDT_CHECK(plan.active(),
               "send_reliable: " + msg_context(packets) +
                   ": inert plans should use the lossless send()");
  auto put = std::make_shared<Put>(this, packets, plan, rc,
                                   std::move(on_complete));
  put->start(start);
}

}  // namespace netddt::spin
