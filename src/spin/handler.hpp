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
#include "spin/dma.hpp"

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
/// memory. Issue offsets are relative to the handler's start; the
/// issuer adds it and the message id and calls the NIC's DmaEngine
/// directly, so building one per handler invocation allocates nothing.
/// `signal_event` corresponds to omitting the paper's NO_EVENT option
/// (only the final zero-byte write signals).
///
/// `train()` issues `count` plain writes of one constant-stride block
/// train in one call — what a handler walking a vector's whole blocks
/// would otherwise issue one `write()` at a time, each one `step` of
/// charged time after the last. The DMA engine keeps the train as one
/// entry of its run-merge heap, arms its sweep as the first write would
/// have, and serves, times and traces every write exactly like those
/// single writes (dma.hpp). The source bytes `src[0, count * block)`
/// must stay valid until the last write has arrived (the packet buffer
/// does).
///
/// Compute families additionally issue read-modify-write requests via
/// `rmw()`: the DMA engine reads the destination, applies the elementwise
/// reduction, and writes the result back (docs/HANDLERS.md). RMW requests
/// are NOT idempotent under replay — contexts issuing them must set a
/// HandlerFamily with ExecutionContext::rmw() so the NIC gates duplicate
/// packets before the handler re-runs.
class DmaIssuer {
 public:
  DmaIssuer(DmaEngine& engine, sim::Time start, std::uint64_t msg_id)
      : engine_(&engine), start_(start), msg_id_(msg_id) {}

  void write(sim::Time issue_offset, std::int64_t host_off,
             std::span<const std::byte> src, bool signal_event = false) {
    engine_->write_at(start_ + issue_offset, host_off, src, signal_event,
                      msg_id_);
  }

  /// Write i (of `count`) is issued at `issue_offset + i * step` and
  /// copies `block` bytes from `src + i * block` to host offset
  /// `host_off + i * stride`.
  void train(sim::Time issue_offset, sim::Time step, std::int64_t host_off,
             std::int64_t stride, const std::byte* src, std::uint64_t block,
             std::uint64_t count) {
    engine_->write_train(start_ + issue_offset, step, host_off, stride, src,
                         block, count, msg_id_);
  }

  /// dst[i] = dst[i] (op) src[i] at landing time; src must stay alive
  /// until the write lands (same contract as `write`).
  void rmw(sim::Time issue_offset, std::int64_t host_off,
           std::span<const std::byte> src, ReduceOp op, ElemType elem) {
    engine_->write_rmw_at(start_ + issue_offset, host_off, src, op, elem,
                          msg_id_);
  }

 private:
  DmaEngine* engine_;
  sim::Time start_;
  std::uint64_t msg_id_;
};

struct HandlerArgs {
  const p4::Packet& pkt;
  std::int64_t buffer_offset;  // destination base from the matched ME
  ChargeMeter& meter;
  DmaIssuer& dma;
};

/// The scatter loop of a byte-moving payload handler: each destination
/// block costs `step` of processing time and is issued once charged,
/// reading the packet payload in stream order. `region` issues one
/// write; `train` issues a constant-stride train of whole blocks in one
/// DmaIssuer::train call, with the same issue instants and charges as
/// `count` region calls. Offsets are relative to the matched buffer.
class BlockWriter {
 public:
  BlockWriter(HandlerArgs& args, sim::Time step) : args_(&args), step_(step) {}

  void region(std::int64_t off, std::uint64_t len) {
    args_->meter.charge(Phase::kProcessing, step_);
    args_->dma.write(args_->meter.total(), args_->buffer_offset + off,
                     {args_->pkt.data + stream_, len});
    stream_ += len;
  }
  void train(std::int64_t off, std::int64_t stride, std::uint64_t block,
             std::uint64_t count) {
    args_->dma.train(args_->meter.total() + step_, step_,
                     args_->buffer_offset + off, stride,
                     args_->pkt.data + stream_, block, count);
    args_->meter.charge(Phase::kProcessing,
                        static_cast<sim::Time>(count) * step_);
    stream_ += count * block;
  }

 private:
  HandlerArgs* args_;
  sim::Time step_;
  std::uint64_t stream_ = 0;  // payload bytes issued so far
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
