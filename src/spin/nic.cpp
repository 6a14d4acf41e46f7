#include "spin/nic.hpp"

#include <string>

#include "sim/check.hpp"

namespace netddt::spin {

NicModel::NicModel(sim::Engine& engine, Host& host, CostModel cost,
                   NicConfig config)
    : engine_(&engine),
      host_(&host),
      cost_(cost),
      nic_memory_(config.nicmem_bytes, &metrics_),
      dma_(engine, cost_, host.memory(), &metrics_),
      scheduler_(engine, config.hpus, cost_, &metrics_) {
  dma_.set_completion_callback(
      [this](std::uint64_t msg_id, sim::Time when) {
        on_final_dma(msg_id, when);
      });
  pkt_buffer_ = &metrics_.gauge("nic.pktbuf.occupancy");
  pkts_delivered_ = &metrics_.counter("nic.pkts.delivered");
  pkts_matched_ = &metrics_.counter("nic.pkts.matched");
  pkts_dropped_ = &metrics_.counter("nic.pkts.dropped");
  pkts_deferred_ = &metrics_.counter("nic.pkts.deferred");
  handler_invocations_ = &metrics_.counter("nic.handler.invocations");
  handler_completions_ = &metrics_.counter("nic.handler.completions");
  handler_init_ = &metrics_.counter("nic.handler.init_time_ps");
  handler_setup_ = &metrics_.counter("nic.handler.setup_time_ps");
  handler_processing_ = &metrics_.counter("nic.handler.processing_time_ps");
  msgs_completed_ = &metrics_.counter("nic.msgs.completed");
}

void NicModel::set_tracer(sim::trace::Tracer* tracer) {
  tracer_ = tracer;
  dma_.set_tracer(tracer);
  scheduler_.set_tracer(tracer);
  if (tracer_ != nullptr && tracer_->events_on()) {
    inbound_track_ = tracer_->track("inbound");
  }
}

ExecutionContext* NicModel::register_context(ExecutionContext ctx) {
  contexts_.push_back(std::make_unique<ExecutionContext>(std::move(ctx)));
  return contexts_.back().get();
}

const NicModel::MsgInfo* NicModel::info(std::uint64_t msg_id) const {
  auto it = msgs_.find(msg_id);
  return it == msgs_.end() ? nullptr : &it->second.info;
}

void NicModel::deliver(const p4::Packet& pkt) {
  // Name the packet in any invariant failure below this frame.
  sim::check::ScopedContext cctx(sim::check::Context{
      static_cast<std::int64_t>(pkt.msg_id),
      static_cast<std::int64_t>(pkt.offset / cost_.pkt_payload), -1});
  pkts_delivered_->add(1);
  if (tracer_ != nullptr && tracer_->events_on()) {
    tracer_->instant(
        inbound_track_, "pkt.in", engine_->now(),
        static_cast<std::int64_t>(pkt.msg_id),
        static_cast<std::int64_t>(pkt.offset / cost_.pkt_payload));
  }
  auto it = msgs_.find(pkt.msg_id);
  if (it == msgs_.end()) {
    // First packet of the message to arrive: run the matching unit. On a
    // lossless wire this is the header packet (paper Sec 2.1.2); under
    // fault injection any packet may open the message — match bits are
    // replicated on all of them.
    // The matching unit walk is folded into rdma_nic_per_pkt in the cost
    // model; surface it as the "match" stage for first packets.
    if (tracer_ != nullptr) {
      tracer_->latency(sim::trace::Stage::kMatch, cost_.rdma_nic_per_pkt);
      if (auto* blame = tracer_->blame()) {
        blame->interval(pkt.msg_id, sim::trace::BlameStage::kMatch,
                        engine_->now(),
                        engine_->now() + cost_.rdma_nic_per_pkt);
      }
    }
    auto hit = match_list_.match(pkt.match_bits);
    if (!hit) {
      pkts_dropped_->add(1);
      host_->events().post(p4::Event{p4::EventKind::kDropped, pkt.msg_id, 0,
                                     engine_->now()});
      return;
    }
    MsgState st;
    st.msg_id = pkt.msg_id;
    st.entry = hit->entry;
    st.list = hit->list;
    st.ctx = static_cast<ExecutionContext*>(hit->entry.context);
    st.info.first_byte = engine_->now();
    it = msgs_.emplace(pkt.msg_id, std::move(st)).first;
  }

  MsgState& st = it->second;
  if (st.info.done) {
    // Stale re-arrival (duplicate or late retransmit) after the final
    // DMA landed: the buffer is already in its final state and the
    // scheduler released this message, so drop the copy here.
    dup_counter().add(1);
    return;
  }
  pkts_matched_->add(1);
  st.info.last_packet = engine_->now();
  if (mark_seen(st, pkt)) {
    st.info.bytes += pkt.payload_bytes;
    ++st.info.packets;
  } else {
    dup_counter().add(1);
    if (st.ctx != nullptr && st.ctx->rmw()) {
      // Read-modify-write families (reduce, accumulate) must not re-run a
      // handler for a replayed packet: the contribution would be applied
      // twice. The seen bitmap gates the replay here; completion
      // bookkeeping still advances in case the duplicate is the held-back
      // completion packet itself.
      if (pkt.last) st.completion_arrived = true;
      compute_dup_counter().add(1);
      maybe_dispatch_completion(st);
      return;
    }
  }
  if (pkt.last) st.completion_arrived = true;

  if (st.ctx == nullptr) {
    deliver_rdma(st, pkt);
  } else {
    deliver_spin(st, pkt);
  }
}

bool NicModel::mark_seen(MsgState& st, const p4::Packet& pkt) {
  const std::uint64_t idx = pkt.offset / cost_.pkt_payload;
  const std::uint64_t word = idx >> 6;
  const std::uint64_t mask = 1ull << (idx & 63);
  if (word >= st.seen.size()) st.seen.resize(word + 1, 0);
  if ((st.seen[word] & mask) != 0) return false;
  st.seen[word] |= mask;
  return true;
}

sim::Counter& NicModel::dup_counter() {
  if (dup_counter_ == nullptr) {
    dup_counter_ = &metrics_.counter("nic.pkts.duplicate");
  }
  return *dup_counter_;
}

sim::Counter& NicModel::compute_dup_counter() {
  // Lazy for the same reason as dup_counter(): runs without compute
  // contexts (or without duplicates) publish no nic.compute.* metrics,
  // keeping historical JSON byte-identical.
  if (compute_dup_counter_ == nullptr) {
    compute_dup_counter_ = &metrics_.counter("nic.compute.dup_suppressed");
  }
  return *compute_dup_counter_;
}

void NicModel::deliver_rdma(MsgState& st, const p4::Packet& pkt) {
  // Non-processing path: parse + match cost, then DMA straight to the
  // host buffer at the packet's message offset.
  const sim::Time ready = engine_->now() + cost_.rdma_nic_per_pkt;
  if (tracer_ != nullptr) {
    tracer_->latency(sim::trace::Stage::kInbound, cost_.rdma_nic_per_pkt);
    if (auto* blame = tracer_->blame()) {
      blame->interval(st.msg_id, sim::trace::BlameStage::kInbound,
                      engine_->now(), ready);
    }
  }
  std::span<const std::byte> src;
  if (pkt.data != nullptr && pkt.payload_bytes > 0) {
    src = std::span<const std::byte>(pkt.data, pkt.payload_bytes);
  }
  dma_.write_at(ready,
                st.entry.buffer_offset + static_cast<std::int64_t>(pkt.offset),
                src, /*signal_event=*/pkt.last, pkt.msg_id);
}

void NicModel::deliver_spin(MsgState& st, const p4::Packet& pkt) {
  // Header-handler happens-before: payload packets cannot be scheduled
  // until the header handler (if installed) has finished. Released
  // packets re-enter the dispatch path (paying the HER generation cost
  // again — the scheduler re-examines them).
  if (st.ctx->header != nullptr && !st.header_done && !pkt.first) {
    pkts_deferred_->add(1);
    st.deferred.push_back(pkt);
    return;
  }

  // Inbound engine: parse + match, copy the packet into NIC memory,
  // then hand a HER to the scheduler. Copies of distinct packets
  // pipeline; we model the per-packet latency only.
  const sim::Time her_ready = cost_.rdma_nic_per_pkt +
                              cost_.pkt_copy_fixed +
                              cost_.nicmem_copy(pkt.payload_bytes) +
                              cost_.her_dispatch;
  // Inbound-engine stage: packet arrival to HER hand-off.
  if (tracer_ != nullptr) {
    tracer_->latency(sim::trace::Stage::kInbound, her_ready);
    if (auto* blame = tracer_->blame()) {
      blame->interval(st.msg_id, sim::trace::BlameStage::kInbound,
                      engine_->now(), engine_->now() + her_ready);
    }
  }

  const bool run_header = pkt.first && st.ctx->header != nullptr;
  const bool run_payload = st.ctx->payload != nullptr && pkt.payload_bytes > 0;

  if (run_payload || run_header) {
    ++st.outstanding;
    // The packet occupies the staging buffer from arrival until its
    // handler completes.
    pkt_buffer_->add(pkt.payload_bytes);
    const p4::Packet pkt_copy = pkt;
    engine_->schedule(her_ready, [this, &st, pkt_copy, run_header,
                                  run_payload] {
      const std::uint64_t pkt_index = pkt_copy.offset / cost_.pkt_payload;
      scheduler_.enqueue(
          pkt_copy.msg_id, st.ctx->policy, pkt_index,
          st.ctx->label, static_cast<std::int64_t>(pkt_index),
          [this, &st, pkt_copy, run_header, run_payload](sim::Time start)
              -> Scheduler::TaskResult {
            // Handlers run functionally on the scheduler's stack, after
            // deliver() returned: re-install the packet identity so
            // segment/dataloop checks can name it.
            sim::check::ScopedContext cctx(sim::check::Context{
                static_cast<std::int64_t>(pkt_copy.msg_id),
                static_cast<std::int64_t>(pkt_copy.offset /
                                          cost_.pkt_payload),
                -1});
            ChargeMeter meter;
            DmaIssuer issuer(dma_, start, pkt_copy.msg_id);
            HandlerArgs args{pkt_copy, st.entry.buffer_offset, meter,
                             issuer};
            if (run_header) st.ctx->header(args);
            if (run_payload) st.ctx->payload(args);
            const sim::Time runtime = meter.total();
            ++st.info.handlers;
            st.info.init_time += meter.phase(Phase::kInit);
            st.info.setup_time += meter.phase(Phase::kSetup);
            st.info.processing_time += meter.phase(Phase::kProcessing);
            handler_invocations_->add(1);
            handler_init_->add(
                static_cast<std::uint64_t>(meter.phase(Phase::kInit)));
            handler_setup_->add(
                static_cast<std::uint64_t>(meter.phase(Phase::kSetup)));
            handler_processing_->add(
                static_cast<std::uint64_t>(meter.phase(Phase::kProcessing)));
            // Handler-completion bookkeeping happens at simulated end,
            // inside the scheduler's HPU-release event.
            const std::uint32_t staged = pkt_copy.payload_bytes;
            return {runtime, [this, &st, staged, run_header] {
              NETDDT_CHECK(st.outstanding > 0,
                           "handler completed for msg " +
                               std::to_string(st.msg_id) +
                               " with no handlers outstanding");
              --st.outstanding;
              NETDDT_CHECK(pkt_buffer_->value() >=
                               static_cast<std::int64_t>(staged),
                           "packet-buffer accounting went negative "
                           "releasing " +
                               std::to_string(staged) + " bytes for msg " +
                               std::to_string(st.msg_id));
              pkt_buffer_->sub(staged);
              if (run_header && !st.header_done) {
                // The header handler finished: release deferred packets.
                st.header_done = true;
                std::vector<p4::Packet> queued;
                queued.swap(st.deferred);
                for (const auto& deferred_pkt : queued) {
                  deliver_spin(st, deferred_pkt);
                }
              }
              maybe_dispatch_completion(st);
            }};
          });
    });
  } else {
    maybe_dispatch_completion(st);
  }
}

void NicModel::maybe_dispatch_completion(MsgState& st) {
  // The completion handler runs after ALL payload handlers (paper
  // Sec 3.2.1 happens-before rule).
  if (!st.completion_arrived || st.outstanding > 0 ||
      st.completion_dispatched) {
    return;
  }
  st.completion_dispatched = true;
  if (st.ctx->completion == nullptr) {
    // No completion handler: treat the message as done when all DMA
    // writes drain; approximate with a zero-byte signalled write now.
    dma_.write(0, {}, /*signal_event=*/true, st.msg_id);
    return;
  }
  // Completion handlers are scheduled like any other handler (default
  // policy: first idle HPU).
  p4::Packet completion_pkt;
  completion_pkt.msg_id = st.msg_id;
  completion_pkt.last = true;
  scheduler_.enqueue(
      completion_pkt.msg_id, SchedulingPolicy::Default(), 0, "completion", -1,
      [this, &st, completion_pkt](sim::Time start) -> sim::Time {
        ChargeMeter meter;
        DmaIssuer issuer(dma_, start, completion_pkt.msg_id);
        HandlerArgs args{completion_pkt, st.entry.buffer_offset, meter,
                         issuer};
        st.ctx->completion(args);
        handler_completions_->add(1);
        return meter.total();
      });
}

void NicModel::on_final_dma(std::uint64_t msg_id, sim::Time when) {
  auto it = msgs_.find(msg_id);
  if (it == msgs_.end()) return;
  MsgState& st = it->second;
  if (st.info.done) return;  // duplicate of a signalled write (lossy wire)
  st.info.unpack_done = when;
  st.info.done = true;
  msgs_completed_->add(1);
  scheduler_.release_message(msg_id);
  const auto kind = st.list == p4::ListKind::kOverflow
                        ? p4::EventKind::kPutOverflow
                        : (st.ctx != nullptr ? p4::EventKind::kUnpackComplete
                                             : p4::EventKind::kPut);
  host_->events().post(p4::Event{kind, msg_id, st.info.bytes, when});
  if (on_msg_done_) on_msg_done_(msg_id, when);
}

}  // namespace netddt::spin
