#include "p4/put.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace netddt::p4 {

sim::Time RetransmitConfig::timeout_for(std::uint32_t attempt,
                                        sim::Time base) const {
  assert(base > 0 && "effective base timeout must be positive");
  const double scaled = static_cast<double>(base) *
                        std::pow(backoff > 1.0 ? backoff : 1.0,
                                 static_cast<double>(attempt));
  // Saturate rather than overflow: int64 picoseconds cover ~106 days,
  // far beyond any simulated run.
  constexpr double kMax = 9.0e18;
  return scaled >= kMax ? static_cast<sim::Time>(kMax)
                        : static_cast<sim::Time>(scaled);
}

bool ReliablePutState::mark_acked(std::size_t i) {
  assert(i < acked_.size());
  if (acked_[i]) return false;
  acked_[i] = true;
  ++acked_count_;
  return true;
}

std::vector<Packet> packetize(std::uint64_t msg_id, std::uint64_t match_bits,
                              std::span<const std::byte> data,
                              std::uint32_t payload) {
  NETDDT_CHECK(payload > 0, "packetize: payload " + std::to_string(payload) +
                                " bytes for msg " + std::to_string(msg_id));
  if (data.empty()) return packetize_empty(msg_id, match_bits);

  const std::uint64_t n = packet_count(data.size(), payload);
  std::vector<Packet> packets;
  packets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Packet pkt;
    pkt.msg_id = msg_id;
    pkt.match_bits = match_bits;
    pkt.offset = i * payload;
    pkt.payload_bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(payload, data.size() - pkt.offset));
    pkt.first = (i == 0);
    pkt.last = (i == n - 1);
    pkt.data = data.data() + pkt.offset;
    packets.push_back(pkt);
  }
  return packets;
}

std::vector<Packet> packetize_empty(std::uint64_t msg_id,
                                    std::uint64_t match_bits) {
  Packet pkt;
  pkt.msg_id = msg_id;
  pkt.match_bits = match_bits;
  pkt.first = pkt.last = true;
  return {pkt};
}

void shuffle_payload(std::vector<Packet>& packets, std::uint32_t window,
                     std::uint64_t seed) {
  if (packets.size() <= 2 || window <= 1) return;
  sim::Rng rng(seed);
  const std::size_t lo = 1, hi = packets.size() - 1;
  for (std::size_t w = lo; w < hi; w += window) {
    const std::size_t end = std::min<std::size_t>(w + window, hi);
    for (std::size_t i = end - 1; i > w; --i) {
      const std::size_t j = w + rng.below(i - w + 1);
      std::swap(packets[i], packets[j]);
    }
  }
}

StreamingPut::StreamingPut(std::uint64_t msg_id, std::uint64_t match_bits,
                           std::uint64_t total_bytes, std::uint32_t payload)
    : msg_id_(msg_id),
      match_bits_(match_bits),
      total_(total_bytes),
      payload_(payload) {
  NETDDT_CHECK(payload > 0, "StreamingPut: payload " +
                                std::to_string(payload) + " bytes for msg " +
                                std::to_string(msg_id));
  // Reserve upfront: emitted packets hold pointers into this buffer, so
  // it must never reallocate.
  buffer_.resize(total_bytes);
}

std::vector<Packet> StreamingPut::stream(std::span<const std::byte> chunk,
                                         bool end_of_message) {
  NETDDT_CHECK(!finished_, "StreamingPut::stream: msg " +
                               std::to_string(msg_id_) +
                               " already completed");
  NETDDT_CHECK(chunk.size() <= total_ - staged_,
               "StreamingPut::stream: chunk of " +
                   std::to_string(chunk.size()) + " bytes overflows msg " +
                   std::to_string(msg_id_) + " (" + std::to_string(staged_) +
                   " of " + std::to_string(total_) + " bytes staged)");
  if (!chunk.empty()) {
    std::memcpy(buffer_.data() + staged_, chunk.data(), chunk.size());
    staged_ += chunk.size();
  }
  if (end_of_message) {
    NETDDT_CHECK(staged_ == total_,
                 "StreamingPut::stream: end of msg " +
                     std::to_string(msg_id_) + " after " +
                     std::to_string(staged_) + " of " +
                     std::to_string(total_) + " bytes");
    finished_ = true;
    if (total_ == 0) {
      // A 0-byte put still needs its single header+completion packet so
      // the receiver can match the entry and complete the message. The
      // emit loop below never runs (emitted_ == staged_ == 0), and
      // stream() cannot be called again once finished.
      return packetize_empty(msg_id_, match_bits_);
    }
  }

  std::vector<Packet> out;
  while (emitted_ < staged_) {
    const std::uint64_t remaining = staged_ - emitted_;
    if (remaining < payload_ && !finished_) break;  // wait for more bytes

    Packet pkt;
    pkt.msg_id = msg_id_;
    pkt.match_bits = match_bits_;
    pkt.offset = emitted_;
    pkt.payload_bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(payload_, remaining));
    pkt.first = (emitted_ == 0);
    pkt.last = finished_ && (emitted_ + pkt.payload_bytes == total_);
    pkt.data = buffer_.data() + emitted_;
    emitted_ += pkt.payload_bytes;
    out.push_back(pkt);
  }
  return out;
}

}  // namespace netddt::p4
