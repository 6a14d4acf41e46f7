#include "p4/put.hpp"

#include <cassert>
#include <cmath>
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

}  // namespace netddt::p4
