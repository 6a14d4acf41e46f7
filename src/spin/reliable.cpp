#include "spin/reliable.hpp"

#include <utility>

namespace netddt::spin {

ReliablePut::ReliablePut(sim::Engine& engine,
                         const std::vector<p4::Packet>& packets,
                         const sim::faults::FaultPlan& plan,
                         const p4::RetransmitConfig& rc,
                         PutCompleteFn on_complete, Counters counters)
    : engine_(&engine),
      packets_(&packets),
      plan_(plan),
      rc_(rc),
      on_complete_(std::move(on_complete)),
      counters_(counters),
      state_(packets.size()) {}

void ReliablePut::start(sim::Time at) {
  base_timeout_ = rc_.timeout > 0 ? rc_.timeout : derived_timeout();
  ack_latency_ = ack_latency();
  const std::size_t n = packets_->size();
  if (n == 1) {
    // Single-packet put: the lone packet is both data and completion.
    completion_sent_ = true;
    transmit(0, 0, at);
    return;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) transmit(i, 0, at);
}

void ReliablePut::transmit(std::uint64_t idx, std::uint32_t attempt,
                           sim::Time at) {
  state_.record_attempt(static_cast<std::size_t>(idx));
  const sim::Time timeout = rc_.timeout_for(attempt, base_timeout_);
  const sim::Time anchor =
      send_attempt(idx, attempt, at, plan_.decide(idx, attempt), timeout);
  engine_->schedule_at(anchor + timeout, [self = shared_from_this(), idx,
                                          attempt] {
    ReliablePut& p = *self;
    if (p.done_ || p.state_.acked(static_cast<std::size_t>(idx))) return;
    if (attempt + 1 > p.rc_.max_retries) {
      p.fail();
      return;
    }
    p.counters_.retransmits->add(1);
    p.transmit(idx, attempt + 1, p.engine_->now());
  });
}

void ReliablePut::arrive_at(sim::Time when, std::uint64_t idx,
                            std::uint32_t attempt, bool is_dup) {
  engine_->schedule_at(when, [self = shared_from_this(), idx, attempt,
                              is_dup] {
    p4::Packet pkt = self->packet(idx);
    pkt.retransmit = attempt > 0;
    pkt.dup = is_dup;
    self->deliver(pkt, idx);
    // Ack on the lossless return channel.
    self->engine_->schedule(self->ack_latency_,
                            [self, idx] { self->on_ack(idx); });
  });
}

void ReliablePut::on_ack(std::uint64_t idx) {
  counters_.acks->add(1);
  if (done_ || !state_.mark_acked(static_cast<std::size_t>(idx))) return;
  const std::uint64_t last = packets_->size() - 1;
  if (idx == last) {
    // Completion packet acked: the put is complete.
    done_ = true;
    completed();
    if (on_complete_) on_complete_(engine_->now(), true);
    return;
  }
  if (!completion_sent_ && state_.data_acked()) {
    // Every data packet acked: release the held-back completion packet.
    completion_sent_ = true;
    transmit(last, 0, engine_->now());
  }
}

void ReliablePut::fail() {
  done_ = true;
  state_.mark_failed();
  counters_.failures->add(1);
  if (on_complete_) on_complete_(engine_->now(), false);
}

}  // namespace netddt::spin
