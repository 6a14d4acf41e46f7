#pragma once
// Outbound sPIN engine: PtlProcessPut (paper Sec 3.1.2).
//
// Instead of injecting packets, the outbound engine forwards each
// would-be packet of the message to the packet scheduler as a HER. The
// handler gathers the packet's payload from host memory (the outbound
// engine "does not fill the packet with data but delegates this task to
// the packet handler") and the packet departs as part of ONE put the
// moment it and every packet before it are ready — in message order,
// handed to the fabric, whose injection port paces it at line rate. The
// packet headers stay in the engine, so a multi-hop route may forward
// them. Built into netddt_transport, above the fabric it sends on.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "p4/packet.hpp"
#include "p4/put.hpp"
#include "sim/engine.hpp"
#include "spin/cost_model.hpp"
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

  /// Handlers run on `scheduler`, the sender NIC's HER scheduler (its
  /// HPUs are shared with the NIC's inbound handlers); its messages
  /// leave from node `src` of `fabric`.
  OutboundEngine(sim::Engine& engine, CostModel cost, Scheduler& scheduler,
                 fabric::Fabric& fabric, std::uint32_t src)
      : engine_(&engine),
        cost_(cost),
        scheduler_(&scheduler),
        fabric_(&fabric),
        src_(src) {}

  /// Issue a PtlProcessPut of `total_bytes` (the packed size of the
  /// datatype) to node `dst`: per-packet HERs run `gather` under
  /// `policy`; packets depart in order as they become ready.
  void process_put(std::uint32_t dst, std::uint64_t msg_id,
                   std::uint64_t match_bits, std::uint64_t total_bytes,
                   SchedulingPolicy policy, GatherFn gather);

 private:
  struct Put {
    std::uint32_t dst = 0;
    sim::Time issued = 0;  // the PtlProcessPut call
    std::vector<std::byte> staging;
    std::vector<p4::Packet> packets;
    std::vector<bool> ready;
    std::size_t next_to_send = 0;
    GatherFn gather;
  };

  void mark_ready(Put& put, std::size_t index);

  sim::Engine* engine_;
  CostModel cost_;
  Scheduler* scheduler_;
  fabric::Fabric* fabric_;
  std::uint32_t src_;
  std::vector<std::unique_ptr<Put>> puts_;
};

}  // namespace netddt::spin
