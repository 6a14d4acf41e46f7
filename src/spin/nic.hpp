#pragma once
// The sPIN NIC model (paper Fig 1): inbound engine -> matching unit ->
// HER scheduler -> HPUs -> DMA engine/PCIe, plus the non-processing
// (plain RDMA) data path for match entries without an execution context.

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <unordered_map>
#include <vector>

#include "p4/event.hpp"
#include "p4/match.hpp"
#include "p4/packet.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "spin/cost_model.hpp"
#include "spin/dma.hpp"
#include "spin/handler.hpp"
#include "spin/nic_memory.hpp"
#include "spin/scheduler.hpp"

namespace netddt::spin {

/// Receiver host: memory the NIC DMAs into plus the Portals event queue
/// the application polls.
///
/// The memory reads as all zeros. It comes from `std::calloc`, which
/// takes a large block as fresh pages the kernel zeroes on first touch
/// and skips its own memset, so a page is materialised on its first
/// write and a page the DMA never writes is never touched: a sparse
/// receive (a matrix column, an FFT transpose) costs its message, not
/// its extent. A value-initialised vector would memset every byte up
/// front; an `mmap` per host would fault every page of the many small
/// buffers too, which measured slower than `calloc`'s heap reuse.
/// Throws std::bad_alloc when the memory cannot be had.
class Host {
 public:
  explicit Host(std::size_t bytes)
      : memory_(static_cast<std::byte*>(std::calloc(bytes ? bytes : 1, 1))),
        bytes_(bytes) {
    if (memory_ == nullptr) throw std::bad_alloc();
  }
  std::span<std::byte> memory() { return {memory_.get(), bytes_}; }
  std::span<const std::byte> memory() const { return {memory_.get(), bytes_}; }
  p4::EventQueue& events() { return events_; }

 private:
  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };
  std::unique_ptr<std::byte, Free> memory_;
  std::size_t bytes_;
  p4::EventQueue events_;
};

struct NicConfig {
  std::uint32_t hpus = 16;
  std::uint64_t nicmem_bytes = 4ull << 20;  // scratchpad capacity
};

/// Packet staging buffer: packets copied into NIC memory wait here from
/// HER creation until their handler finishes (paper Sec 3.2.4's B_pkt).
/// The model tracks occupancy so the checkpoint-interval heuristic's
/// third constraint is observable; it does not drop packets. Backed by
/// the "nic.pktbuf.occupancy" gauge.
struct PacketBufferStats {
  std::uint64_t occupancy = 0;  // bytes currently staged
  std::uint64_t peak = 0;
};

class NicModel {
 public:
  NicModel(sim::Engine& engine, Host& host, CostModel cost = {},
           NicConfig config = {});

  p4::MatchList& match_list() { return match_list_; }
  NicMemory& memory() { return nic_memory_; }
  DmaEngine& dma() { return dma_; }
  Scheduler& scheduler() { return scheduler_; }
  sim::Engine& engine() { return *engine_; }
  const CostModel& cost() const { return cost_; }
  Host& host() { return *host_; }
  /// The registry all NIC-layer components (inbound engine, scheduler,
  /// DMA queue, NIC memory) and the offload strategies publish into.
  sim::MetricsRegistry& metrics() { return metrics_; }
  const sim::MetricsRegistry& metrics() const { return metrics_; }

  /// Attach an event tracer (nullptr detaches) and wire it through to
  /// the engine-facing components (scheduler, DMA engine). The fabric
  /// picks it up via tracer() when sending to this NIC.
  void set_tracer(sim::trace::Tracer* tracer);
  sim::trace::Tracer* tracer() const { return tracer_; }

  /// Register an execution context; the returned pointer goes into
  /// MatchEntry::context and stays valid for the NIC's lifetime.
  ExecutionContext* register_context(ExecutionContext ctx);
  std::size_t registered_contexts() const { return contexts_.size(); }

  /// Deliver one packet at the current simulated time (called by the
  /// fabric's ejection port).
  /// Any packet of an unknown message runs the matching unit (match bits
  /// ride on every packet; the search is a hash-bucket probe whose cost
  /// the per-packet NIC overhead covers), so a lossy wire may open a
  /// message with a payload packet.
  ///
  /// Duplicate-delivery contract (docs/HANDLERS.md): for byte-moving
  /// families (kScatter, kTransform) duplicates re-run handlers — they
  /// rewrite identical bytes, so replay is harmless. For read-modify-
  /// write families (ExecutionContext::rmw(): kReduce, kAccumulate) the
  /// seen bitmap gates replay and the duplicate is dropped before its
  /// handler runs, counted under "nic.compute.dup_suppressed" — a
  /// re-applied contribution would double-accumulate. Re-arrivals after
  /// the message completed are dropped and counted under
  /// "nic.pkts.duplicate" either way.
  void deliver(const p4::Packet& pkt);

  /// Per-message observation for benchmarks.
  struct MsgInfo {
    sim::Time first_byte = -1;    // first packet delivery
    sim::Time last_packet = -1;   // last packet delivery
    sim::Time unpack_done = -1;   // final signalled DMA landed
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::uint64_t handlers = 0;
    bool done = false;
    // Payload-handler phase breakdown (sums over handlers): Fig 12.
    sim::Time init_time = 0;
    sim::Time setup_time = 0;
    sim::Time processing_time = 0;
  };
  const MsgInfo* info(std::uint64_t msg_id) const;

  /// Observer of message completion (fires from on_final_dma, after the
  /// MsgInfo is final and the completion event was posted). The message
  /// driver uses it to verify and release messages, and its schedules to
  /// admit queued work; nullptr detaches.
  using MsgDoneFn = std::function<void(std::uint64_t msg_id, sim::Time when)>;
  void set_msg_done_callback(MsgDoneFn fn) { on_msg_done_ = std::move(fn); }

  PacketBufferStats packet_buffer() const {
    return PacketBufferStats{
        static_cast<std::uint64_t>(pkt_buffer_->value()),
        static_cast<std::uint64_t>(pkt_buffer_->peak())};
  }

 private:
  struct MsgState {
    std::uint64_t msg_id = 0;
    p4::MatchEntry entry;
    p4::ListKind list = p4::ListKind::kPriority;
    ExecutionContext* ctx = nullptr;
    std::uint64_t outstanding = 0;   // payload handlers in flight
    bool completion_arrived = false;
    bool completion_dispatched = false;
    // Header-handler happens-before (paper Sec 3.2.1): payload HERs
    // arriving before the header handler finished are deferred.
    bool header_done = false;
    std::vector<p4::Packet> deferred;
    // Bitmap of packet indices delivered at least once, so MsgInfo
    // bytes/packets count *unique* packets even when the reliable
    // transport delivers duplicates. On a lossless wire every packet is
    // fresh and the bitmap changes nothing observable.
    std::vector<std::uint64_t> seen;
    MsgInfo info;
  };

  /// Mark the packet's index in `st.seen`; returns true on first sight.
  bool mark_seen(MsgState& st, const p4::Packet& pkt);
  /// "nic.pkts.duplicate", registered on the first duplicate observed so
  /// lossless runs publish no reliability counters.
  sim::Counter& dup_counter();
  /// "nic.compute.dup_suppressed": duplicates gated before an RMW-family
  /// handler could re-run. Lazy for the same JSON-stability reason.
  sim::Counter& compute_dup_counter();

  void deliver_rdma(MsgState& st, const p4::Packet& pkt);
  void deliver_spin(MsgState& st, const p4::Packet& pkt);
  void run_handler(MsgState& st, const p4::Packet pkt,
                   const PacketHandler& handler, bool is_payload);
  void maybe_dispatch_completion(MsgState& st);
  void on_final_dma(std::uint64_t msg_id, sim::Time when);

  sim::Engine* engine_;
  Host* host_;
  CostModel cost_;
  // Declared before the components that publish into it.
  sim::MetricsRegistry metrics_;
  p4::MatchList match_list_;
  MsgDoneFn on_msg_done_;
  NicMemory nic_memory_;
  DmaEngine dma_;
  Scheduler scheduler_;
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
  std::unordered_map<std::uint64_t, MsgState> msgs_;

  sim::Gauge* pkt_buffer_;        // nic.pktbuf.occupancy (bytes)
  sim::Counter* pkts_delivered_;  // nic.pkts.delivered
  sim::Counter* pkts_matched_;    // nic.pkts.matched
  sim::Counter* pkts_dropped_;    // nic.pkts.dropped
  sim::Counter* pkts_deferred_;   // nic.pkts.deferred (header HB rule)
  sim::Counter* handler_invocations_;  // nic.handler.invocations
  sim::Counter* handler_completions_;  // nic.handler.completions
  sim::Counter* handler_init_;         // nic.handler.init_time_ps
  sim::Counter* handler_setup_;        // nic.handler.setup_time_ps
  sim::Counter* handler_processing_;   // nic.handler.processing_time_ps
  sim::Counter* msgs_completed_;       // nic.msgs.completed
  sim::Counter* dup_counter_ = nullptr;  // nic.pkts.duplicate (lazy)
  sim::Counter* compute_dup_counter_ = nullptr;  // nic.compute.* (lazy)

  sim::trace::Tracer* tracer_ = nullptr;
  std::uint32_t inbound_track_ = 0;  // packet arrivals + message events
};

}  // namespace netddt::spin
