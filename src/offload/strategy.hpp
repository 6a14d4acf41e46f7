#pragma once
// Common vocabulary for the datatype-offload strategies: the receive
// side's (paper Sec 3.2) and the sender side's (Sec 3.1, Fig 4).

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace netddt::offload {

enum class StrategyKind {
  kHostUnpack,   // RDMA receive + CPU unpack (the paper's baseline)
  kSpecialized,  // datatype-specific handlers (Sec 3.2.3)
  kHpuLocal,     // general handlers, per-vHPU segment replicas
  kRoCp,         // general handlers, read-only checkpoints
  kRwCp,         // general handlers, progressing checkpoints
  kIovec,        // Portals 4 iovec offload comparator (Sec 5.3)
};

std::string_view strategy_name(StrategyKind kind);

/// How the sending node turns a typed source into packets (the three
/// tiles of Fig 4; offload/driver.hpp's Source and send_issue).
enum class SendStrategy {
  kPackSend,      // the CPU packs the whole message, then the NIC streams it
  kStreamingPut,  // the CPU issues one PtlSPutStream per region; a packet
                  // leaves once the region holding its last byte is issued
  kOutboundSpin,  // PtlProcessPut: sender-side handlers gather each packet
};

std::string_view send_strategy_name(SendStrategy s);

/// Outcome of one offloaded (or baseline) receive.
struct ReceiveResult {
  StrategyKind strategy{};
  std::uint64_t message_bytes = 0;
  /// Bytes that crossed the wire. Equal to message_bytes except for the
  /// kTransform compute family, where the sender quantized the stream
  /// (wire_bytes < message_bytes is the transform's whole point).
  std::uint64_t wire_bytes = 0;
  std::uint64_t packets = 0;
  double gamma = 0.0;  // average contiguous regions per packet

  /// Message processing time: first byte received -> last byte in the
  /// receive buffer (paper Sec 3.2.4 definition).
  sim::Time msg_time = 0;
  /// End-to-end: ready-to-receive -> unpack complete (Fig 8 throughput).
  sim::Time e2e_time = 0;
  /// Host-side preparation before the receive can be posted (checkpoint
  /// creation + copy to NIC for RO/RW-CP; iovec list build for kIovec).
  sim::Time host_setup_time = 0;

  /// Bytes of descriptor state moved to the NIC to support the unpack
  /// (dataloops + checkpoints / specialized params / iovec entries) —
  /// the Fig 16 bar annotations.
  std::uint64_t nic_descriptor_bytes = 0;
  /// Peak NIC memory occupancy during the receive (Fig 13b/c).
  std::uint64_t nic_memory_peak = 0;

  /// Total main-memory traffic to receive + unpack (Fig 17).
  std::uint64_t host_traffic_bytes = 0;

  std::uint64_t dma_writes = 0;
  std::size_t dma_queue_peak = 0;
  /// Peak bytes staged in the NIC packet buffer while handlers lagged
  /// behind arrivals (the heuristic's B_pkt constraint, Sec 3.2.4).
  std::uint64_t pkt_buffer_peak = 0;

  /// Payload-handler runtime breakdown, mean per handler (Fig 12).
  sim::Time handler_init = 0;
  sim::Time handler_setup = 0;
  sim::Time handler_processing = 0;
  std::uint64_t handlers = 0;

  /// Checkpoint interval the heuristic chose (RO/RW-CP only).
  std::uint64_t checkpoint_interval = 0;
  std::uint64_t checkpoints = 0;

  /// Reliability-layer observations, nonzero only when the receive ran
  /// over a lossy wire (ReceiveConfig::faults.active()): timed-out
  /// re-sends, attempts dropped on the wire, and duplicate packet
  /// deliveries reaching the NIC.
  std::uint64_t retransmits = 0;
  std::uint64_t pkts_dropped = 0;
  std::uint64_t dup_deliveries = 0;

  bool verified = false;  // receive buffer held the sent message

  double throughput_gbps() const {
    return sim::throughput_gbps(message_bytes, e2e_time);
  }
  double msg_throughput_gbps() const {
    return sim::throughput_gbps(message_bytes, msg_time);
  }
};

}  // namespace netddt::offload
