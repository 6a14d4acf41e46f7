#include "offload/sender.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "ddt/pack.hpp"
#include "fabric/fabric.hpp"
#include "offload/driver.hpp"
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
  const ddt::RegionList list = config.type->region_list(config.count);
  const std::vector<ddt::Region>& regions = list.regions();

  SendResult res;
  res.strategy = config.strategy;
  res.message_bytes = msg;

  // Source buffer with a recognizable pattern laid out per the type.
  const Window window = receive_window(*config.type, config.count);
  const std::uint64_t shift = window.shift;
  std::vector<std::byte> source(window.bytes + 64, std::byte{0});
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
  // What the Pack+Send CPU would stream.
  std::vector<std::byte> expected(msg);
  if (msg != 0) {  // expected.data() may be null
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
      outbound->process_put(
          1, me.match_bits, msg, spin::SchedulingPolicy::Default(),
          [&c, &source, &list, shift](const p4::Packet& pkt,
                                      std::byte* staging,
                                      spin::ChargeMeter& meter) {
            meter.charge(spin::Phase::kInit,
                         c.h_init + c.pcie_read_latency);
            const std::uint64_t first = pkt.offset;
            list.walk(first, first + pkt.payload_bytes,
                      [&](std::size_t, std::int64_t host_off,
                          std::uint64_t stream_off, std::uint64_t len) {
                        meter.charge(spin::Phase::kProcessing,
                                     c.h_block + c.h_dma_issue);
                        std::memcpy(staging + (stream_off - first),
                                    source.data() + shift + host_off, len);
                      });
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
