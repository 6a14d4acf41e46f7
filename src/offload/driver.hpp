#pragma once
// The message driver: one world of nodes on a fabric, and the one path
// every message takes through it (docs/ARCHITECTURE.md, "Message
// driver"). run_receive, run_send, run_service and fabric::run_collective
// are schedules of posts and offers on it: the driver sends each offer
// (from a typed source on the sending node with one of the paper's
// sender strategies, or packed), dispatches its completion or failure,
// verifies its landing, frees its payload, and at the drain checks
// completed + failed == offered.
//
// Release rule: a payload is freed at done when no later copy can read
// it: on lossless sends (oblivious routes and FIFO ports land every
// packet, handler and DMA write before the completion) and on
// read-modify-write landings (the NIC drops duplicates unread). Lossy
// byte movers and failed puts wait for the drain, since a duplicate can
// still run a handler or an RDMA write after done. Payloads are freed,
// not pooled, so ASan reports any late read. The release runs the
// schedule's on_release hook after the verify counters move, so a
// schedule may recycle the landing's host window there: at done for a
// lossless message, only at the drain for a held or failed one.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "offload/compute_plan.hpp"
#include "offload/facade.hpp"
#include "offload/general.hpp"
#include "offload/iovec.hpp"
#include "offload/runner.hpp"
#include "offload/specialized.hpp"
#include "offload/strategy.hpp"
#include "spin/outbound.hpp"

namespace netddt::offload {

/// A receive window in host memory: type offset 0 sits at base + shift.
struct Window {
  std::int64_t base = 0;
  std::uint64_t shift = 0;
  std::uint64_t bytes = 0;
  std::int64_t at() const { return base + static_cast<std::int64_t>(shift); }
};

/// The window `count` instances of `type` need, from base 0: sized off
/// the upper bound (with lb > 0 the last instance reaches past
/// count*extent) and shifted up by a negative lb.
Window receive_window(const ddt::Datatype& type, std::uint64_t count);

/// A typed send buffer: `count` instances of `type` in the sending node's
/// host memory, type offset 0 at window.at(), sent with `strategy`
/// (paper Sec 3.1, Fig 4).
struct Source {
  ddt::TypePtr type;
  std::uint64_t count = 1;
  Window window{};
  SendStrategy strategy = SendStrategy::kPackSend;
};

/// When each packet of `source`'s message is ready for the wire, counted
/// from the offer: pack+send after the CPU packed the whole message
/// (host_pack_time); a streaming put once the CPU has found and issued
/// the region holding the packet's last byte (4 host_block_overhead per
/// region). Outbound sPIN has no host-issued packets and is rejected.
std::vector<sim::Time> send_issue(const Source& source,
                                  const spin::CostModel& cost);

/// A strategy or compute plan built once on one node. Its handlers keep
/// their state in the plan, not per message, so the plan's first post
/// registers one execution context with the node's NIC and every later
/// post reuses it.
struct Plan {
  std::unique_ptr<SpecializedPlan> specialized;
  std::unique_ptr<GeneralPlan> general;
  std::unique_ptr<IovecPlan> iovec;
  std::unique_ptr<ComputePlan> compute;
  const char* label = nullptr;  // names handler spans and the descriptor
  bool rmw = false;             // read-modify-write landing
  std::uint64_t descriptor_bytes = 0;
  sim::Time host_setup_time = 0;
  std::uint32_t node = 0;  // where it was installed
  mutable spin::ExecutionContext* context = nullptr;  // set at first post
};

/// Where a posted receive lands, and how its message is verified.
struct Landing {
  enum class Check {
    kPacked,   // the stream as sent, at window.at()
    kRegions,  // the type's regions hold the stream; gaps unchecked
    kSlot,     // the whole window equals the stream's unpack, gaps included
    kCompute,  // the whole window equals the compute plan's host reference
  };
  std::uint32_t node = 1;  // the receiver of a point-to-point world
  std::uint64_t bits = 0;  // match bits
  Window window{};
  const Plan* plan = nullptr;  // null: packed RDMA (or a facade post)
  Check check = Check::kPacked;
  bool verify = true;
  ddt::TypePtr type{};  // kRegions / kSlot
  std::uint64_t count = 1;
  dataloop::PackEngine engine = dataloop::PackEngine::kInterpreter;
};

struct Message {
  std::uint64_t id = 0;
  std::uint32_t src = 0;
  Landing to{};
  std::uint64_t seed = 0;  // payload seed
  sim::Time arrival = -1;  // blame and completion start (-1: the offer)
  std::vector<std::byte> payload{};
  std::vector<p4::Packet> packets{};  // lossless multi-hop: forwarded headers
  bool held = false;  // lossy send to a non-RMW landing: freed at drain
  bool failed = false;
};

struct World {
  fabric::FabricConfig fabric{};  // its cost model is every NIC's
  spin::NicConfig nic{};
  /// Host bytes per node; 0 makes a send-only node (no host, no NIC).
  std::vector<std::uint64_t> host_bytes{};
  sim::trace::TraceConfig trace{};
  sim::faults::FaultConfig faults{};
  p4::RetransmitConfig retransmit{};
  std::uint32_t ooo_window = 0;  // lossless payload reorder window
};

class MessageDriver {
 public:
  explicit MessageDriver(const World& world);
  MessageDriver(const MessageDriver&) = delete;
  MessageDriver& operator=(const MessageDriver&) = delete;

  sim::Engine& engine() { return engine_; }
  fabric::Fabric& fabric() { return fabric_; }
  spin::NicModel& nic(std::uint32_t node);
  spin::Host& host(std::uint32_t node) { return nic(node).host(); }
  sim::trace::Tracer* tracer() const { return tracer_.get(); }
  std::unique_ptr<sim::trace::Tracer> take_tracer() {
    return std::move(tracer_);
  }

  /// Build `spec`'s compute or strategy (not kHostUnpack) plan on `node`
  /// from its type, count, pack_engine, epsilon and pkt_buffer_bytes.
  const Plan& install(std::uint32_t node, const ReceiveConfig& spec);
  void post(const Landing& landing);
  /// Post through `facade` (bound to landing.node's NIC); a host fallback
  /// returns the landing as kPacked.
  Landing post(Landing landing, DdtEngine& facade,
               DdtEngine::TypeHandle handle);

  /// Offer `m` (id, src, to, seed, arrival) now, with a payload of
  /// `bytes`: packed_message_pattern, or with `compute` typed elements
  /// (quantized for kTransform). Returns the payload, valid until the
  /// message's release. Without `source` the payload leaves packed at
  /// once. With one, it is first unpacked into the source's window on
  /// node m.src, then sent with the source's strategy: host-issued
  /// packets at their send_issue times, or an outbound put whose gather
  /// handlers read the window. A source needs a lossless, in-order send.
  std::span<const std::byte> offer(Message m, std::uint64_t bytes,
                                   const spin::ComputeConfig* compute = {},
                                   const Source* source = {});

  /// Run to the end; `expected` is the schedule's message count. Throws
  /// a Violation naming the messages that neither completed nor failed.
  void drain(std::uint64_t expected);

  /// The schedule's hook: once per message when it completes or its put
  /// fails (m.failed), before the release.
  std::function<void(const Message&, sim::Time)> on_finish;
  /// The schedule's hook: once per message at its release, after the
  /// message is verified and before its payload is freed.
  std::function<void(const Message&)> on_release;

  std::uint64_t in_flight() const { return offered_ - completed_ - failed_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  /// Checked releases: held the payload / did not / never completed.
  std::uint64_t verified() const { return verified_; }
  std::uint64_t mismatched() const { return mismatched_; }
  std::uint64_t skipped() const { return skipped_; }
  std::uint64_t peak_payload_bytes() const { return peak_payload_bytes_; }

 private:
  using Live = std::unordered_map<std::uint64_t, Message>;
  void done(std::uint32_t node, std::uint64_t id, sim::Time when);
  void put_failed(std::uint64_t id, sim::Time when);
  Live::iterator release(Live::iterator it);
  bool holds(const Message& m);
  void send_outbound(const Message& m, const Source& source);
  std::string unfinished() const;

  World world_;
  sim::Engine engine_;
  fabric::Fabric fabric_;
  std::unique_ptr<sim::trace::Tracer> tracer_;
  sim::trace::BlameLedger* blame_ = nullptr;
  std::deque<Plan> plans_;
  std::vector<std::unique_ptr<spin::Host>> hosts_;
  std::vector<std::unique_ptr<spin::NicModel>> nics_;
  std::vector<std::unique_ptr<spin::OutboundEngine>> outbound_;  // lazy
  Live live_;
  std::vector<std::byte> reference_;  // kSlot / kCompute reference window
  std::uint64_t offered_ = 0, completed_ = 0, failed_ = 0;
  std::uint64_t verified_ = 0, mismatched_ = 0, skipped_ = 0;
  std::uint64_t payload_bytes_ = 0, peak_payload_bytes_ = 0;
};

}  // namespace netddt::offload
