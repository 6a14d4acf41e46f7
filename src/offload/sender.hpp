#pragma once
// Sender-side non-contiguous transfer strategies (paper Sec 3.1 and the
// three tiles of Fig 4), as one schedule on the message driver
// (offload/driver.hpp): node 0 holds the typed source, node 1 lands the
// packed stream contiguously, and one offer sends it.
//
//  - kPackSend      : the CPU packs the full message into a bounce
//                     buffer, then the NIC streams it (left tile).
//  - kStreamingPut  : the CPU walks the datatype and issues
//                     PtlSPutStart/PtlSPutStream per contiguous region;
//                     a packet leaves once the region holding its last
//                     byte is issued, overlapping region discovery with
//                     transmission (middle tile).
//  - kOutboundSpin  : PtlProcessPut — the NIC's outbound engine emits
//                     one HER per would-be packet; sender-side handlers
//                     find the regions and gather the data with DMA
//                     reads; the CPU only issues the control-plane
//                     operation (right tile).

#include <cstdint>

#include "ddt/datatype.hpp"
#include "offload/strategy.hpp"
#include "sim/time.hpp"
#include "spin/cost_model.hpp"

namespace netddt::offload {

struct SendConfig {
  ddt::TypePtr type;
  std::uint64_t count = 1;
  SendStrategy strategy = SendStrategy::kStreamingPut;
  spin::CostModel cost{};
  std::uint32_t hpus = 16;  // per NIC: the sender's outbound handler units
  bool verify = true;
};

struct SendResult {
  SendStrategy strategy{};
  std::uint64_t message_bytes = 0;
  /// Time until the last byte is delivered to the target host memory.
  sim::Time total_time = 0;
  /// Time the sender CPU is busy (packing / region discovery /
  /// control-plane only).
  sim::Time cpu_busy_time = 0;
  /// When the first packet left the sender (pipelining indicator).
  sim::Time first_departure = 0;
  bool verified = false;

  double throughput_gbps() const {
    return sim::throughput_gbps(message_bytes, total_time);
  }
};

/// Simulate sending `count` instances of `type` from the sender's host
/// memory to a receiver that lands the packed stream contiguously.
/// Throws a Violation naming the message when it never completes.
SendResult run_send(const SendConfig& config);

}  // namespace netddt::offload
