// Tests for the outbound sPIN engine (PtlProcessPut): the target must
// observe one in-order message paced at line rate by the point-to-point
// fabric, with payloads gathered by sender-side handlers.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "fabric/fabric.hpp"
#include "p4/match.hpp"
#include "sim/engine.hpp"
#include "spin/nic.hpp"
#include "spin/outbound.hpp"

namespace netddt::spin {
namespace {

class OutboundFixture : public ::testing::Test {
 protected:
  OutboundFixture()
      : host(1 << 20),
        nic(eng, host, CostModel{}),
        link(eng, fabric::point_to_point(CostModel{})) {
    link.attach(1, nic);
    p4::MatchEntry me;
    me.match_bits = 7;
    me.buffer_offset = 0;
    me.length = 1 << 20;
    nic.match_list().append(p4::ListKind::kPriority, me);
  }

  /// The sender NIC's HER scheduler, with `hpus` handler units.
  Scheduler& sender(std::uint32_t hpus) {
    return sender_hpus.emplace(eng, hpus, cost);
  }

  sim::Engine eng;
  Host host;
  NicModel nic;
  fabric::Fabric link;
  CostModel cost;
  std::optional<Scheduler> sender_hpus;
};

TEST_F(OutboundFixture, GatheredMessageArrivesIntact) {
  OutboundEngine out(eng, CostModel{}, sender(8), link, 0);
  const std::uint64_t total = 10000;
  std::vector<std::byte> source(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    source[i] = static_cast<std::byte>(i * 13 + 1);
  }
  out.process_put(/*dst=*/1, 1, 7, total, SchedulingPolicy::Default(),
                  [&source](const p4::Packet& pkt, std::byte* staging,
                            ChargeMeter& meter) {
                    meter.charge(Phase::kProcessing, sim::ns(200));
                    std::memcpy(staging, source.data() + pkt.offset,
                                pkt.payload_bytes);
                  });
  eng.run();
  const auto* info = nic.info(1);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  EXPECT_EQ(std::memcmp(host.memory().data(), source.data(), total), 0);
}

TEST_F(OutboundFixture, PacketsDepartInMessageOrder) {
  // Make even packets slow to gather: departures must still be in
  // order (streaming-put semantics: one message, header first).
  OutboundEngine out(eng, CostModel{}, sender(8), link, 0);
  std::vector<std::uint64_t> arrival_order;
  // Observe order via a processing context on the receiver.
  ExecutionContext ctx;
  ctx.payload = [&arrival_order](HandlerArgs& args) {
    arrival_order.push_back(args.pkt.offset);
    args.meter.charge(Phase::kProcessing, sim::ns(10));
  };
  ctx.completion = [](HandlerArgs& args) { args.dma.write(0, 0, {}, true); };
  p4::MatchEntry me;
  me.match_bits = 8;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const std::uint64_t total = 8 * 2048;
  out.process_put(/*dst=*/1, 2, 8, total, SchedulingPolicy::Default(),
                  [](const p4::Packet& pkt, std::byte*, ChargeMeter& m) {
                    const bool slow = (pkt.offset / 2048) % 2 == 0;
                    m.charge(Phase::kProcessing,
                             slow ? sim::us(5) : sim::ns(100));
                  });
  eng.run();
  ASSERT_EQ(arrival_order.size(), 8u);
  EXPECT_TRUE(std::is_sorted(arrival_order.begin(), arrival_order.end()))
      << "outbound packets must leave in message order";
}

TEST_F(OutboundFixture, FastGatherSustainsLineRate) {
  OutboundEngine out(eng, CostModel{}, sender(16), link, 0);
  const std::uint64_t total = 1 << 20;
  out.process_put(/*dst=*/1, 3, 7, total, SchedulingPolicy::Default(),
                  [](const p4::Packet&, std::byte*, ChargeMeter& m) {
                    m.charge(Phase::kProcessing, sim::ns(300));
                  });
  eng.run();
  const auto* info = nic.info(3);
  ASSERT_TRUE(info != nullptr && info->done);
  const double gbps = sim::throughput_gbps(
      total, info->last_packet - info->first_byte);
  EXPECT_GT(gbps, 180.0);
}

TEST_F(OutboundFixture, SlowGatherThrottlesTheStream) {
  OutboundEngine out(eng, CostModel{}, sender(1), link, 0);  // one sender HPU
  const std::uint64_t total = 64 * 2048;
  const sim::Time per_pkt = sim::us(2);
  out.process_put(/*dst=*/1, 4, 7, total, SchedulingPolicy::Default(),
                  [per_pkt](const p4::Packet&, std::byte*, ChargeMeter& m) {
                    m.charge(Phase::kProcessing, per_pkt);
                  });
  eng.run();
  const auto* info = nic.info(4);
  ASSERT_TRUE(info != nullptr && info->done);
  // One HPU at 2 us/packet gates the stream far below line rate.
  EXPECT_GE(info->last_packet - info->first_byte, 63 * per_pkt);
}

}  // namespace
}  // namespace netddt::spin
