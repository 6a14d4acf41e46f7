#pragma once
// Packet-level collectives over the multi-node fabric.
//
// Three dense collectives — alltoall, allgather, reduce-scatter — run as
// real packet traffic: every (round, src, dst) message is packetized,
// forwarded hop-by-hop through the Topology's switches (contending for
// output ports), and received by a full NIC pipeline. Byte-moving
// collectives land through the sPIN DDT-unpack path (a SpecializedPlan
// per node scatters each peer's block into its strided slot);
// reduce-scatter lands through the streaming-reduction handlers (PR 9's
// ComputePlan, HandlerFamily::kReduce) so P-1 contributions combine
// in-NIC into one contiguous block per round. `offload = false` posts
// context-free match entries instead — plain RDMA into packed slots, the
// host-unpack baseline.
//
// Rounds are driven open-loop: each node owns one sim::ArrivalProcess
// stream and offers a full round of P-1 messages (shifted peer order) at
// every arrival, so back-to-back rounds overlap and queue inside the
// fabric under load. Per-message completion time is measured at the
// receiver (NIC msg-done callback, i.e. after the final signalled DMA)
// minus the round's offer instant; the run reports goodput and
// p50/p99/p99.9 of that distribution.
//
// Lossy runs (CollectiveConfig::faults.active()) route every message
// through Fabric::send_reliable, composing PR 4's reliable transport
// (acks, backoff, held-back completion) with multi-hop contention.
// Messages that exhaust their retries are counted in `failed` and their
// destination windows are excluded from verification.
//
// Memory: a message's payload is built at its offer instant and lives
// only until its release, where a byte-moving slot is verified and the
// payload is freed. A message is released at its destination's
// msg-done callback when no later copy can still read its bytes: on
// lossless runs (oblivious routes and FIFO ports deliver every packet,
// and land every handler and DMA write, before the completion's
// signalled write) and on reduce-scatter's read-modify-write landing
// (the NIC drops duplicates unread). Lossy
// byte movers, and puts that failed, wait for the end of the run: a
// duplicate that reaches the NIC just before done can still run a
// handler or an RDMA write after it. Reduce-scatter verifies against
// per-window expected contents that fold in each contribution as it is
// built. So payload memory follows the messages in flight, not the
// messages offered. Host memory still holds one slot per (round, peer).
//
// Determinism: arrival streams, fault schedules and routing are pure
// functions of (config, seeds); one run is byte-identical across
// repeats and --jobs levels.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "dataloop/program.hpp"
#include "fabric/fabric.hpp"
#include "p4/put.hpp"
#include "sim/arrivals.hpp"
#include "sim/faults/faults.hpp"
#include "sim/metrics.hpp"
#include "spin/compute.hpp"
#include "spin/nic.hpp"

namespace netddt::fabric {

enum class CollectiveKind { kAlltoall, kAllgather, kReduceScatter };

inline const char* collective_name(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAlltoall: return "alltoall";
    case CollectiveKind::kAllgather: return "allgather";
    case CollectiveKind::kReduceScatter: return "reduce_scatter";
  }
  return "?";
}

inline std::optional<CollectiveKind> parse_collective(std::string_view name) {
  if (name == "alltoall") return CollectiveKind::kAlltoall;
  if (name == "allgather") return CollectiveKind::kAllgather;
  if (name == "reduce_scatter") return CollectiveKind::kReduceScatter;
  return std::nullopt;
}

struct CollectiveConfig {
  CollectiveKind kind = CollectiveKind::kAlltoall;
  FabricConfig fabric;
  /// Per-(src, dst) block: the wire bytes of one message. Must be a
  /// multiple of 256 (the receive type's block length) and of the
  /// reduce element size.
  std::uint64_t block_bytes = 8 << 10;
  std::uint32_t rounds = 4;
  /// Per-node round offer process (stream = node id).
  sim::ArrivalConfig arrivals;
  spin::NicConfig nic;
  /// NIC-side landing: DDT unpack / streaming reduction on the NIC
  /// (true) vs plain RDMA into packed slots (false, host baseline).
  bool offload = true;
  dataloop::PackEngine pack_engine = dataloop::PackEngine::kInterpreter;
  /// Reduce-scatter element/op (ignored by the byte-moving kinds).
  spin::ReduceOp op = spin::ReduceOp::kSum;
  spin::ElemType elem = spin::ElemType::kInt32;
  /// Wire faults; when active() every message uses the reliable path.
  sim::faults::FaultConfig faults;
  p4::RetransmitConfig retransmit;
  std::uint64_t seed = 42;
  /// Check every completed destination window against a host reference
  /// (ddt::unpack / init-fill + apply_reduce).
  bool verify = true;
};

struct CollectiveRun {
  std::uint64_t messages = 0;   // offered
  std::uint64_t completed = 0;  // finished the receive pipeline
  std::uint64_t failed = 0;     // reliable puts that exhausted retries
  std::uint64_t bytes_moved = 0;  // wire bytes of completed messages
  sim::Time makespan = 0;       // first offer -> last completion
  double goodput_gbps = 0.0;    // bytes_moved over makespan
  /// Per-message completion-time distribution (microseconds, offer ->
  /// receiver msg-done).
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::vector<double> completion_us;
  /// Per-round makespan (first offer of the round -> last completion of
  /// the round), microseconds; rounds with failures report their
  /// completed subset.
  std::vector<double> round_us;
  std::uint64_t verified_windows = 0;
  std::uint64_t skipped_windows = 0;  // touched by a failed put
  std::uint64_t mismatched_windows = 0;
  /// High-water mark of payload bytes held at once (offered, not yet
  /// released; see "Memory" above). Host-side only: no bench reports it.
  std::uint64_t peak_live_payload_bytes = 0;
  sim::MetricsSnapshot fabric_metrics;
};

CollectiveRun run_collective(const CollectiveConfig& config);

}  // namespace netddt::fabric
