#pragma once
// The sPIN handler execution API.
//
// Handlers are C++ functors executed *functionally* (they really move
// bytes) while *charging* simulated time through a ChargeMeter. Charges
// are bucketed into the paper's Fig 12 phases — init, setup, processing —
// so the runtime breakdown falls out of execution. DMA writes issued by a
// handler enter the DMA engine at the simulated instant the handler
// issued them (handler start + time charged so far), which is what makes
// the DMA-queue traces (Fig 14/15) faithful.

#include <cstdint>
#include <functional>
#include <span>

#include "p4/packet.hpp"
#include "sim/time.hpp"
#include "spin/compute.hpp"

namespace netddt::spin {

enum class Phase : std::uint8_t { kInit, kSetup, kProcessing };

class ChargeMeter {
 public:
  void charge(Phase phase, sim::Time t) {
    by_phase_[static_cast<std::size_t>(phase)] += t;
    total_ += t;
  }
  sim::Time total() const { return total_; }
  sim::Time phase(Phase p) const {
    return by_phase_[static_cast<std::size_t>(p)];
  }

 private:
  sim::Time by_phase_[3]{};
  sim::Time total_ = 0;
};

/// Handler-side DMA interface: issue fire-and-forget writes to host
/// memory. `signal_event` corresponds to omitting the paper's NO_EVENT
/// option (only the final zero-byte write signals).
///
/// Compute families additionally issue read-modify-write requests via
/// `rmw()`: the DMA engine reads the destination, applies the elementwise
/// reduction, and writes the result back (docs/HANDLERS.md). RMW requests
/// are NOT idempotent under replay — contexts issuing them must set a
/// HandlerFamily with ExecutionContext::rmw() so the NIC gates duplicate
/// packets before the handler re-runs.
class DmaIssuer {
 public:
  using IssueFn = std::function<void(sim::Time issue_offset,
                                     std::int64_t host_off,
                                     std::span<const std::byte> src,
                                     bool signal_event)>;
  using RmwFn = std::function<void(sim::Time issue_offset,
                                   std::int64_t host_off,
                                   std::span<const std::byte> src,
                                   ReduceOp op, ElemType elem)>;
  explicit DmaIssuer(IssueFn fn) : fn_(std::move(fn)) {}
  DmaIssuer(IssueFn fn, RmwFn rmw)
      : fn_(std::move(fn)), rmw_(std::move(rmw)) {}

  void write(sim::Time issue_offset, std::int64_t host_off,
             std::span<const std::byte> src, bool signal_event = false) {
    fn_(issue_offset, host_off, src, signal_event);
  }

  /// dst[i] = dst[i] (op) src[i] at landing time; src must stay alive
  /// until the write lands (same contract as `write`).
  void rmw(sim::Time issue_offset, std::int64_t host_off,
           std::span<const std::byte> src, ReduceOp op, ElemType elem) {
    rmw_(issue_offset, host_off, src, op, elem);
  }

 private:
  IssueFn fn_;
  RmwFn rmw_;
};

struct HandlerArgs {
  const p4::Packet& pkt;
  std::int64_t buffer_offset;  // destination base from the matched ME
  ChargeMeter& meter;
  DmaIssuer& dma;
};

using PacketHandler = std::function<void(HandlerArgs&)>;

/// Packet scheduling policy (paper Sec 3.2.1). kDefault dispatches ready
/// handlers to any idle HPU; kBlockedRR serializes sequences of delta_p
/// consecutive packets on virtual HPUs.
struct SchedulingPolicy {
  enum class Kind : std::uint8_t { kDefault, kBlockedRR };
  Kind kind = Kind::kDefault;
  std::uint32_t num_vhpus = 0;  // blocked-RR only
  std::uint32_t delta_p = 1;    // packets per sequence

  static SchedulingPolicy Default() { return {}; }
  static SchedulingPolicy BlockedRR(std::uint32_t vhpus,
                                    std::uint32_t delta_p) {
    return SchedulingPolicy{Kind::kBlockedRR, vhpus, delta_p};
  }
};

/// Execution context attached to a match list entry (paper Sec 2.1.3):
/// the handlers plus the packet scheduling policy. Handler NIC-memory
/// state lives in the strategy objects; its *capacity* is accounted in
/// NicMemory by the strategies.
struct ExecutionContext {
  PacketHandler header;      // optional
  PacketHandler payload;     // optional
  PacketHandler completion;  // optional
  SchedulingPolicy policy;
  /// Names the handler spans in traces (e.g. the offload strategy);
  /// must outlive the context — a literal or a Tracer-interned string.
  const char* label = "handler";
  /// Which handler family this context implements (docs/HANDLERS.md).
  /// kScatter covers every byte-moving strategy; compute families change
  /// the NIC's duplicate-replay contract via rmw() below.
  HandlerFamily family = HandlerFamily::kScatter;
  /// True when payload handlers issue read-modify-write DMA: the NIC
  /// must then suppress handler replay for duplicate packets (the seen
  /// bitmap gates them) instead of relying on idempotent rewrites.
  /// kTransform stays false: dequantize emits plain writes of identical
  /// bytes, so replay is harmless — the historical contract.
  bool rmw() const { return read_modify_write(family); }
};

}  // namespace netddt::spin
