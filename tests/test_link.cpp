// Tests for the single link — the point-to-point fabric route: line-rate
// pacing, paced (ready-gated) sends, one injection port shared by every
// send, and the shuffle invariants of p4::shuffle_payload (header first,
// completion last, permutation only within windows).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fabric/fabric.hpp"
#include "p4/put.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "spin/nic.hpp"

namespace netddt::spin {
namespace {

/// A receiver world (node 1 of a point-to-point fabric) recording
/// packet-handler dispatch times.
struct World {
  World()
      : host(1 << 20),
        nic(eng, host, CostModel{}),
        link(eng, fabric::point_to_point(nic.cost())) {
    link.attach(1, nic);
    ExecutionContext ctx;
    ctx.payload = [this](HandlerArgs& args) {
      arrivals.emplace_back(eng.now(), args.pkt.offset);
      args.meter.charge(Phase::kProcessing, sim::ns(1));
    };
    ctx.completion = [](HandlerArgs& args) { args.dma.write(0, 0, {}, true); };
    p4::MatchEntry me;
    me.match_bits = 1;
    me.context = nic.register_context(std::move(ctx));
    me.use_once = false;
    nic.match_list().append(p4::ListKind::kPriority, me);
    data.resize(8 * 2048);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(i);
    }
  }

  sim::Engine eng;
  Host host;
  NicModel nic;
  fabric::Fabric link;
  std::vector<std::byte> data;
  std::vector<std::pair<sim::Time, std::uint64_t>> arrivals;
};

/// Message 1 over `data`, payload packets shuffled.
std::vector<p4::Packet> shuffled(const std::vector<std::byte>& data,
                                 std::uint32_t window, std::uint64_t seed) {
  auto pkts = p4::packetize(1, 1, data);
  p4::shuffle_payload(pkts, window, seed);
  return pkts;
}

class LinkFixture : public ::testing::Test {
 protected:
  World world;
  sim::Engine& eng = world.eng;
  NicModel& nic = world.nic;
  fabric::Fabric& link = world.link;
  std::vector<std::byte>& data = world.data;
  std::vector<std::pair<sim::Time, std::uint64_t>>& arrivals =
      world.arrivals;
};

TEST_F(LinkFixture, PacketsPacedAtLineRate) {
  link.send(0, 1, p4::packetize(1, 1, data), 0);
  eng.run();
  ASSERT_EQ(arrivals.size(), 8u);
  const sim::Time interval = nic.cost().pkt_interval();
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].first - arrivals[i - 1].first, interval);
  }
  // First handler dispatch: wire + latency + inbound pipeline.
  EXPECT_GE(arrivals[0].first, interval + nic.cost().net_latency);
}

TEST_F(LinkFixture, StartOffsetShiftsEverything) {
  link.send(0, 1, p4::packetize(1, 1, data), 0);
  eng.run();
  const auto baseline = arrivals;
  arrivals.clear();

  World shifted;
  shifted.link.send(0, 1, p4::packetize(1, 1, shifted.data), sim::us(5));
  shifted.eng.run();
  ASSERT_EQ(shifted.arrivals.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(shifted.arrivals[i].first, baseline[i].first + sim::us(5));
  }
}

TEST_F(LinkFixture, PacedSendWaitsForReadyTimes) {
  auto pkts = p4::packetize(1, 1, data);
  std::vector<sim::Time> ready(pkts.size(), 0);
  ready[3] = sim::us(50);  // packet 3 held back; later ones queue behind
  link.send(0, 1, pkts, 0, ready);
  eng.run();
  ASSERT_EQ(arrivals.size(), 8u);
  EXPECT_LT(arrivals[2].first, sim::us(10));
  EXPECT_GE(arrivals[3].first, sim::us(50));
  EXPECT_GE(arrivals[4].first, arrivals[3].first);
}

TEST_F(LinkFixture, ReadyTimesMustMatchPackets) {
  // A ready vector of the wrong length is a NETDDT_CHECK violation,
  // live in every build type.
  const auto pkts = p4::packetize(1, 1, data);
  const std::vector<sim::Time> ready(pkts.size() - 1, 0);
  EXPECT_THROW(link.send(0, 1, pkts, 0, ready), sim::check::Violation);
}

TEST(Link, SendsShareOnePort) {
  // Two sends at t=0 from one node queue behind its injection port:
  // message B's first packet reaches the NIC only after message A's
  // last one.
  World w;
  const auto a = p4::packetize(1, 1, w.data);
  const auto b = p4::packetize(2, 1, w.data);
  w.link.send(0, 1, a, 0);
  w.link.send(0, 1, b, 0);
  w.eng.run();
  const auto* info_a = w.nic.info(1);
  const auto* info_b = w.nic.info(2);
  ASSERT_NE(info_a, nullptr);
  ASSERT_NE(info_b, nullptr);
  const sim::Time a_last = info_a->last_packet;
  EXPECT_GT(info_b->first_byte, a_last);
  EXPECT_LE(info_b->first_byte, a_last + w.nic.cost().pkt_interval() + 1);
  EXPECT_GE(w.link.port_free(0), 2 * 8 * w.nic.cost().pkt_interval() - 2);
}

TEST_F(LinkFixture, ShuffleKeepsEndpointsAndPermutesMiddle) {
  link.send(0, 1, shuffled(data, 4, /*seed=*/3), 0);
  eng.run();
  ASSERT_EQ(arrivals.size(), 8u);
  EXPECT_EQ(arrivals.front().second, 0u);
  EXPECT_EQ(arrivals.back().second, 7u * 2048);
  // Same multiset of offsets.
  std::vector<std::uint64_t> offs;
  for (auto& [t, o] : arrivals) offs.push_back(o);
  std::sort(offs.begin(), offs.end());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(offs[i], i * 2048);
}

TEST_F(LinkFixture, ShuffleWindowBoundsDisplacement) {
  link.send(0, 1, shuffled(data, 3, /*seed=*/9), 0);
  eng.run();
  // A packet shuffled within windows of 3 slots lands at most 2 slots
  // from its in-order position.
  for (std::size_t slot = 0; slot < arrivals.size(); ++slot) {
    const auto original = arrivals[slot].second / 2048;
    EXPECT_LE(std::llabs(static_cast<long long>(original) -
                         static_cast<long long>(slot)),
              2)
        << "slot " << slot;
  }
}

TEST_F(LinkFixture, ShuffleDeterministicPerSeed) {
  link.send(0, 1, shuffled(data, 4, 7), 0);
  eng.run();
  auto first = arrivals;
  arrivals.clear();

  World other;
  other.link.send(0, 1, shuffled(other.data, 4, 7), 0);
  other.eng.run();
  ASSERT_EQ(first.size(), other.arrivals.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].second, other.arrivals[i].second);
  }
}

TEST_F(LinkFixture, WindowOfOneIsInOrder) {
  link.send(0, 1, shuffled(data, 1, 7), 0);
  eng.run();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].second, i * 2048);
  }
}

}  // namespace
}  // namespace netddt::spin
