#include "offload/sender.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "dataloop/cache.hpp"
#include "ddt/pack.hpp"
#include "fabric/fabric.hpp"
#include "offload/host_model.hpp"
#include "p4/put.hpp"
#include "sim/check.hpp"
#include "spin/nic.hpp"
#include "spin/outbound.hpp"

namespace netddt::offload {

std::string_view send_strategy_name(SendStrategy s) {
  switch (s) {
    case SendStrategy::kPackSend: return "Pack+Send";
    case SendStrategy::kStreamingPut: return "StreamingPuts";
    case SendStrategy::kOutboundSpin: return "Outbound-sPIN";
  }
  return "?";
}

SendResult run_send(const SendConfig& config) {
  NETDDT_CHECK(config.type != nullptr && config.count > 0,
               "run_send needs a datatype and a positive count");
  const spin::CostModel& c = config.cost;
  const std::uint64_t msg = config.type->size() * config.count;
  const auto regions = config.type->flatten(config.count);

  SendResult res;
  res.strategy = config.strategy;
  res.message_bytes = msg;

  // Source buffer with a recognizable pattern laid out per the type
  // (sized off the upper bound: with lb > 0 the last instance reaches
  // past count*extent). Negative lb puts bytes below offset 0; shift the
  // whole layout up so it stays inside the buffer.
  const std::int64_t lo = std::min(
      {std::int64_t{0}, config.type->lb(), config.type->true_lb()});
  const std::int64_t hi = std::max(
      {std::int64_t{0}, config.type->ub(), config.type->true_ub()});
  const std::uint64_t shift = static_cast<std::uint64_t>(-lo);
  const std::uint64_t src_bytes =
      shift +
      static_cast<std::uint64_t>(config.type->extent()) *
          (config.count - 1) +
      static_cast<std::uint64_t>(hi) + 64;
  std::vector<std::byte> source(src_bytes, std::byte{0});
  {
    std::uint64_t stream = 0;
    for (const auto& r : regions) {
      for (std::uint64_t b = 0; b < r.size; ++b, ++stream) {
        source[static_cast<std::size_t>(
                   static_cast<std::int64_t>(shift) + r.offset) +
               b] = static_cast<std::byte>((stream * 131 + 7) & 0xFF);
      }
    }
  }
  std::vector<std::byte> expected(msg);
  std::shared_ptr<const dataloop::FlatProgram> prog;
  if (config.pack_engine == dataloop::PackEngine::kProgram) {
    prog = dataloop::plan_cached(config.type, config.count).program;
  }
  if (prog != nullptr) {
    // Chunked program pack — the same resumable windows the Pack+Send
    // CPU would stream; byte-identical to ddt::pack by construction.
    const std::uint64_t step = c.pkt_payload;
    for (std::uint64_t at = 0; at < msg; at += step) {
      prog->pack(source.data() + shift, at, std::min(msg, at + step),
                 expected.data() + at);
    }
  } else if (msg > 0) {
    ddt::pack(source.data() + shift, *config.type, config.count,
              expected.data());
  }

  sim::Engine engine;
  spin::Host host(msg + 64);
  spin::NicModel nic(engine, host, c);
  fabric::Fabric link(engine, fabric::point_to_point(c));
  link.attach(1, nic);
  p4::MatchEntry me;
  me.match_bits = 0xABCD;
  me.length = msg;
  nic.match_list().append(p4::ListKind::kPriority, me);

  std::vector<p4::Packet> packets;
  std::vector<sim::Time> ready;
  p4::StreamingPut sput(1, me.match_bits, msg);
  std::unique_ptr<spin::OutboundEngine> outbound;

  switch (config.strategy) {
    case SendStrategy::kPackSend: {
      // CPU packs everything first; the NIC then streams the bounce
      // buffer at line rate.
      const sim::Time pack = host_pack_time(*config.type, config.count, c);
      res.cpu_busy_time = pack;
      packets = p4::packetize(1, me.match_bits, expected, c.pkt_payload);
      ready.assign(packets.size(), pack);
      break;
    }
    case SendStrategy::kStreamingPut: {
      // The CPU walks the type; every region becomes a PtlSPutStream
      // chunk available after the cumulative discovery time. Region
      // discovery only reads descriptors — no data copy.
      sim::Time cpu = 0;
      std::uint64_t stream = 0;
      if (regions.empty()) {
        // Zero-size type: nothing to walk, but the put must still close
        // with its single empty packet.
        for (auto& pkt : sput.stream({}, true)) {
          packets.push_back(pkt);
          ready.push_back(cpu);
        }
      }
      for (std::size_t i = 0; i < regions.size(); ++i) {
        cpu += c.host_block_overhead * 4;  // find region + issue call
        const auto& r = regions[i];
        auto out = sput.stream({expected.data() + stream, r.size},
                               i + 1 == regions.size());
        stream += r.size;
        for (auto& pkt : out) {
          packets.push_back(pkt);
          ready.push_back(cpu);
        }
      }
      res.cpu_busy_time = cpu;
      break;
    }
    case SendStrategy::kOutboundSpin: {
      // PtlProcessPut through the real outbound engine: one HER per
      // packet on the sender's HPU pool; the gather handler locates the
      // packet's regions and DMA-reads them from host memory.
      outbound = std::make_unique<spin::OutboundEngine>(
          engine, c, config.hpus, link, /*src=*/0, /*dst=*/1);
      // Stream prefix of each region, for the per-packet window search.
      std::vector<std::uint64_t> prefix;
      prefix.reserve(regions.size() + 1);
      std::uint64_t at = 0;
      for (const auto& r : regions) {
        prefix.push_back(at);
        at += r.size;
      }
      prefix.push_back(at);

      outbound->process_put(
          1, me.match_bits, msg, spin::SchedulingPolicy::Default(),
          [&c, &source, &regions, shift, prefix = std::move(prefix)](
              const p4::Packet& pkt, std::byte* staging,
              spin::ChargeMeter& meter) {
            meter.charge(spin::Phase::kInit,
                         c.h_init + c.pcie_read_latency);
            const std::uint64_t first = pkt.offset;
            const std::uint64_t last = first + pkt.payload_bytes;
            auto it = std::upper_bound(prefix.begin(), prefix.end(), first);
            auto idx = static_cast<std::uint64_t>(
                           std::distance(prefix.begin(), it)) -
                       1;
            std::uint64_t pos = first;
            while (pos < last) {
              const auto& r = regions[idx];
              const std::uint64_t rem = pos - prefix[idx];
              const std::uint64_t take =
                  std::min<std::uint64_t>(r.size - rem, last - pos);
              meter.charge(spin::Phase::kProcessing,
                           c.h_block + c.h_dma_issue);
              std::memcpy(staging + (pos - first),
                          source.data() + shift + r.offset +
                              static_cast<std::ptrdiff_t>(rem),
                          take);
              pos += take;
              if (pos == prefix[idx + 1]) ++idx;
            }
          });
      res.cpu_busy_time = c.h_init;  // the PtlProcessPut control op only
      break;
    }
  }

  if (config.strategy != SendStrategy::kOutboundSpin) {
    res.first_departure = ready.empty() ? 0 : ready.front();
    link.send(0, 1, packets, 0, ready);
  }
  engine.run();

  const auto* info = nic.info(1);
  if (info == nullptr || !info->done) {
    throw std::runtime_error("msg 1 did not complete");
  }
  res.total_time = info->unpack_done;
  if (config.strategy == SendStrategy::kOutboundSpin) {
    // First departure = first byte at the target minus the flight time.
    res.first_departure = info->first_byte - c.net_latency -
                          c.wire_time(std::min<std::uint64_t>(
                              msg, c.pkt_payload));
  }
  if (config.verify) {
    // expected.data() may be null for a 0-byte message.
    res.verified =
        msg == 0 ||
        std::memcmp(host.memory().data(), expected.data(), msg) == 0;
  }
  return res;
}

}  // namespace netddt::offload
