#pragma once
// Put-operation packetization and sender-side reliability:
//  - puts: one packed buffer split into header/payload/completion
//    packets. Every sender strategy of the paper (Sec 3.1) sends such a
//    put; a streaming put (PtlSPutStream) differs only in when each
//    packet is ready, which offload::send_issue computes from the
//    datatype's regions;
//  - the per-packet acknowledgement / retransmission bookkeeping
//    (RetransmitConfig, ReliablePutState) a lossy wire needs. The
//    protocol machine itself runs in fabric::Fabric::send_reliable;
//    this layer owns the pure state so it is testable without a
//    simulator.
//
// Ordering contract: packetize() emits packets in stream order (header
// first, completion last) and the lossless route (Fabric::send)
// preserves it; shuffle_payload() permutes the payload packets in
// between. Under fault injection the transport keeps only two
// invariants: the completion packet is transmitted after every other
// packet is acked, and a put completes (all-acked) only after the
// completion packet is acked too. All timing constants are sim::Time
// picoseconds.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "p4/packet.hpp"
#include "sim/time.hpp"

namespace netddt::p4 {

/// Split a fully packed buffer into message packets.
std::vector<Packet> packetize(std::uint64_t msg_id, std::uint64_t match_bits,
                              std::span<const std::byte> data,
                              std::uint32_t payload = kPacketPayload);

/// Split a zero-data control message (e.g. a 1-byte or 0-byte put).
std::vector<Packet> packetize_empty(std::uint64_t msg_id,
                                    std::uint64_t match_bits);

/// Permute the payload packets (indices 1..n-2) of `packets` within
/// consecutive windows of `window` slots, seeded: the header stays
/// first and the completion stays last. Exercises the out-of-order paths
/// of the offload strategies (segment resets, RW-CP checkpoint
/// rollback). A window of 0 or 1 keeps stream order.
void shuffle_payload(std::vector<Packet>& packets, std::uint32_t window,
                     std::uint64_t seed);

/// Retransmission policy of a reliable put: per-packet timeout with
/// exponential backoff and capped retries.
struct RetransmitConfig {
  /// Base retransmit timeout (ps), measured from the end of the
  /// attempt's serialization at the injection port. 0 means "derive
  /// from the route": the transport substitutes a timeout safely above
  /// one round trip plus a full output FIFO per hop and the worst-case
  /// reorder skew, so in-flight packets are not retransmitted
  /// spuriously.
  sim::Time timeout = 0;
  /// Timeout multiplier per failed attempt (attempt n waits
  /// timeout * backoff^n).
  double backoff = 2.0;
  /// Retransmissions allowed per packet before the put fails.
  std::uint32_t max_retries = 16;

  /// Timeout for `attempt` (0 = first transmission) given the effective
  /// base timeout.
  sim::Time timeout_for(std::uint32_t attempt, sim::Time base) const;
};

/// Sender-side state of one reliable put over `npkt` packets: which
/// packets are acknowledged and how often each was (re)transmitted.
/// Put completion is all_acked(); the transport releases the completion
/// packet (index npkt-1) once data_acked() holds. Pure bookkeeping —
/// no simulator types, so tests can drive it directly.
class ReliablePutState {
 public:
  explicit ReliablePutState(std::size_t npkt)
      : acked_(npkt, false), attempts_(npkt, 0) {}

  std::size_t packets() const { return acked_.size(); }
  bool acked(std::size_t i) const { return acked_[i]; }
  /// Record an ack; returns true when `i` was not acked before (the
  /// transport ignores duplicate acks).
  bool mark_acked(std::size_t i);
  /// All packets except the final (completion) one acked.
  bool data_acked() const { return acked_count_ + 1 >= acked_.size(); }
  bool all_acked() const { return acked_count_ == acked_.size(); }

  /// Transmissions of packet `i` so far (1 = first send done).
  std::uint32_t attempts(std::size_t i) const { return attempts_[i]; }
  void record_attempt(std::size_t i) {
    if (attempts_[i] == 0) ++first_attempts_;
    ++attempts_[i];
    ++total_attempts_;
  }
  std::uint64_t total_attempts() const { return total_attempts_; }
  /// Retransmissions = attempts beyond the first per packet.
  std::uint64_t retransmits() const {
    return total_attempts_ -
           static_cast<std::uint64_t>(first_attempts_);
  }

  bool failed() const { return failed_; }
  void mark_failed() { failed_ = true; }

 private:
  std::vector<bool> acked_;
  std::vector<std::uint32_t> attempts_;
  std::size_t acked_count_ = 0;
  std::uint64_t total_attempts_ = 0;
  std::uint32_t first_attempts_ = 0;
  bool failed_ = false;
};

}  // namespace netddt::p4
