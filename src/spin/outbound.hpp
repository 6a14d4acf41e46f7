#pragma once
// Outbound sPIN engine: PtlProcessPut (paper Sec 3.1.2).
//
// Instead of injecting packets, the outbound engine forwards each
// would-be packet of the message to the packet scheduler as a HER. The
// handler gathers the packet's payload from host memory (the outbound
// engine "does not fill the packet with data but delegates this task to
// the packet handler") and the packet departs as part of ONE streaming
// put the moment it is ready — in message order, handed to the fabric,
// whose injection port paces it at line rate. Built into
// netddt_transport, above the fabric it sends on.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "p4/packet.hpp"
#include "sim/engine.hpp"
#include "spin/cost_model.hpp"
#include "p4/put.hpp"
#include "spin/handler.hpp"
#include "spin/scheduler.hpp"

namespace netddt::fabric {
class Fabric;
}

namespace netddt::spin {

class OutboundEngine {
 public:
  /// Gather handler: fill `staging` with the packet's payload bytes
  /// (reading from sender host memory) and charge the time spent. Runs
  /// on a sender-side HPU.
  using GatherFn = std::function<void(const p4::Packet& pkt,
                                      std::byte* staging,
                                      ChargeMeter& meter)>;

  /// `hpus` are the sender NIC's handler units; the generated message
  /// goes from node `src` to node `dst` of `fabric`.
  OutboundEngine(sim::Engine& engine, CostModel cost, std::uint32_t hpus,
                 fabric::Fabric& fabric, std::uint32_t src, std::uint32_t dst)
      : engine_(&engine),
        cost_(cost),
        scheduler_(engine, hpus, cost_),
        fabric_(&fabric),
        src_(src),
        dst_(dst) {}

  /// Issue a PtlProcessPut of `total_bytes` (the packed size of the
  /// datatype): per-packet HERs run `gather` under `policy`; packets
  /// depart in order as they become ready. Returns the message id.
  void process_put(std::uint64_t msg_id, std::uint64_t match_bits,
                   std::uint64_t total_bytes, SchedulingPolicy policy,
                   GatherFn gather);

  Scheduler& scheduler() { return scheduler_; }

  /// Attach an event tracer to the sender-side scheduler. The sender and
  /// receiver NICs should not share one tracer — the per-HPU track names
  /// would collide.
  void set_tracer(sim::trace::Tracer* tracer) {
    scheduler_.set_tracer(tracer);
  }

 private:
  struct Put {
    std::vector<std::byte> staging;
    std::vector<p4::Packet> packets;
    std::vector<bool> ready;
    std::size_t next_to_send = 0;
    GatherFn gather;
  };

  void mark_ready(Put& put, std::size_t index);

  sim::Engine* engine_;
  CostModel cost_;
  Scheduler scheduler_;
  fabric::Fabric* fabric_;
  std::uint32_t src_;
  std::uint32_t dst_;
  std::vector<std::unique_ptr<Put>> puts_;
};

}  // namespace netddt::spin
