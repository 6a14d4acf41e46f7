#include "spin/outbound.hpp"

#include "fabric/fabric.hpp"

namespace netddt::spin {

void OutboundEngine::process_put(std::uint64_t msg_id,
                                 std::uint64_t match_bits,
                                 std::uint64_t total_bytes,
                                 SchedulingPolicy policy, GatherFn gather) {
  puts_.push_back(std::make_unique<Put>());
  Put& put = *puts_.back();
  put.gather = std::move(gather);
  put.staging.resize(total_bytes);
  put.packets = p4::packetize(msg_id, match_bits, put.staging,
                              cost_.pkt_payload);
  put.ready.assign(put.packets.size(), false);

  // The outbound engine emits one HER per packet; the scheduler fans
  // them out over the sender's HPUs under the put's policy.
  for (std::size_t i = 0; i < put.packets.size(); ++i) {
    scheduler_.enqueue(
        msg_id, policy, i,
        [this, &put, i](sim::Time /*start*/) -> sim::Time {
          const p4::Packet& pkt = put.packets[i];
          ChargeMeter meter;
          // Gather runs functionally now; its simulated cost gates the
          // packet's readiness.
          put.gather(pkt, put.staging.data() + pkt.offset, meter);
          const sim::Time runtime = meter.total();
          engine_->schedule(runtime,
                            [this, &put, i] { mark_ready(put, i); });
          return runtime;
        });
  }
}

void OutboundEngine::mark_ready(Put& put, std::size_t index) {
  put.ready[index] = true;
  // Streaming-put semantics: the target must see ONE in-order message,
  // so packet i is handed to the fabric only after packets 0..i-1; the
  // injection port queues it behind them.
  while (put.next_to_send < put.packets.size() &&
         put.ready[put.next_to_send]) {
    fabric_->send(src_, dst_, {put.packets[put.next_to_send]},
                  engine_->now());
    ++put.next_to_send;
  }
}

}  // namespace netddt::spin
