#pragma once
// Packet-level collectives over the multi-node fabric, as schedules on
// the message driver (offload/driver.hpp).
//
// Three dense collectives — alltoall, allgather, reduce-scatter — run as
// real packet traffic: every (round, src, dst) message is packetized,
// forwarded hop-by-hop through the Topology's switches (contending for
// output ports), and received by a full NIC pipeline. Byte-moving
// collectives land through the sPIN DDT-unpack path (one SpecializedPlan
// per node scatters each peer's block into its strided slot);
// reduce-scatter lands through the streaming-reduction handlers (one
// kReduce ComputePlan per node) so P-1 contributions combine in-NIC into
// one contiguous block per round. `offload = false` posts context-free
// match entries instead — plain RDMA into packed slots, the host-unpack
// baseline. Every (destination, round, source) entry is posted before
// the first offer.
//
// Rounds are driven open-loop: each node owns one sim::ArrivalProcess
// stream and offers a full round of P-1 messages (shifted peer order) in
// one event at every arrival, so back-to-back rounds overlap and queue
// inside the fabric under load. Per-message completion time is measured
// at the receiver (NIC msg-done, i.e. after the final signalled DMA)
// minus the round's offer instant; the run reports goodput and
// p50/p99/p99.9 of that distribution.
//
// Lossy runs (CollectiveConfig::faults.active()) send every message
// through Fabric::send_reliable. Messages that exhaust their retries are
// counted in `failed` and their slots or windows are skipped by
// verification.
//
// Verification and memory follow the driver: a byte-moving slot is
// compared whole, gaps included, with the unpacked payload when the
// message is released, and payloads live from the offer to the release
// (at done on lossless runs and on the reduce landing, at the end of the
// run for lossy byte movers and failed puts). Reduce-scatter folds each
// contribution into a per-window expected block as it is built and
// compares the windows after the run. Host memory holds one slot per
// (round, peer).
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
  /// released). Host-side only: no bench reports it.
  std::uint64_t peak_live_payload_bytes = 0;
  sim::MetricsSnapshot fabric_metrics;
};

CollectiveRun run_collective(const CollectiveConfig& config);

}  // namespace netddt::fabric
