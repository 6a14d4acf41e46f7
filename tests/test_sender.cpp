// Tests for the sender-side strategies (paper Sec 3.1): all three must
// deliver the exact packed stream; streaming puts must overlap region
// discovery with transmission; outbound sPIN must free the sender CPU.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "ddt/datatype.hpp"
#include "offload/sender.hpp"
#include "sim/check.hpp"

namespace netddt::offload {
namespace {

using ddt::Datatype;
using ddt::TypePtr;

TypePtr strided(std::int64_t count, std::int64_t block) {
  return Datatype::hvector(count, block, 2 * block, Datatype::int8());
}

SendConfig cfg(TypePtr type, SendStrategy s, std::uint64_t count = 1) {
  SendConfig c;
  c.type = std::move(type);
  c.count = count;
  c.strategy = s;
  return c;
}

constexpr SendStrategy kAll[] = {SendStrategy::kPackSend,
                                 SendStrategy::kStreamingPut,
                                 SendStrategy::kOutboundSpin};

TEST(Sender, AllStrategiesDeliverExactStream) {
  for (auto s : kAll) {
    const auto r = run_send(cfg(strided(1024, 256), s));
    EXPECT_TRUE(r.verified) << send_strategy_name(s);
    EXPECT_EQ(r.message_bytes, 1024u * 256u);
  }
}

TEST(Sender, NestedTypeDelivers) {
  auto inner = Datatype::vector(4, 2, 4, Datatype::float64());
  auto t = Datatype::hvector(16, 1, 2048, inner);
  for (auto s : kAll) {
    EXPECT_TRUE(run_send(cfg(t, s, 4)).verified) << send_strategy_name(s);
  }
}

TEST(Sender, StreamingPutsOverlapDiscoveryWithTransmission) {
  auto t = strided(16384, 64);  // 1 MiB, many regions
  const auto pack = run_send(cfg(t, SendStrategy::kPackSend));
  const auto stream = run_send(cfg(t, SendStrategy::kStreamingPut));
  // Pack+send cannot start before the full pack; streaming starts after
  // the first packet's worth of regions.
  EXPECT_LT(stream.first_departure, pack.first_departure);
  EXPECT_LT(stream.total_time, pack.total_time);
}

TEST(Sender, OutboundSpinFreesTheCpu) {
  auto t = strided(16384, 64);
  const auto pack = run_send(cfg(t, SendStrategy::kPackSend));
  const auto stream = run_send(cfg(t, SendStrategy::kStreamingPut));
  const auto spin = run_send(cfg(t, SendStrategy::kOutboundSpin));
  // Fig 4 narrative: pack+send busies the CPU most; streaming puts
  // still walk the type on the CPU; outbound sPIN only issues the
  // control-plane operation.
  EXPECT_LT(spin.cpu_busy_time, stream.cpu_busy_time);
  EXPECT_LT(stream.cpu_busy_time, pack.cpu_busy_time);
  EXPECT_LT(spin.cpu_busy_time, sim::us(1));
}

TEST(Sender, LargeBlocksApproachLineRate) {
  auto t = strided(512, 4096);  // 2 MiB of 4 KiB blocks
  // The overlapped strategies approach line rate; pack+send is gated by
  // the CPU pack and stays well below it (the Fig 4 motivation).
  const auto stream = run_send(cfg(t, SendStrategy::kStreamingPut));
  const auto spin = run_send(cfg(t, SendStrategy::kOutboundSpin));
  const auto pack = run_send(cfg(t, SendStrategy::kPackSend));
  EXPECT_GT(stream.throughput_gbps(), 100.0);
  EXPECT_GT(spin.throughput_gbps(), 100.0);
  EXPECT_LT(pack.throughput_gbps(), stream.throughput_gbps());
}

TEST(Sender, SingleRegionMessage) {
  auto t = Datatype::contiguous(8192, Datatype::int8());
  for (auto s : kAll) {
    EXPECT_TRUE(run_send(cfg(t, s)).verified) << send_strategy_name(s);
  }
}

TEST(Sender, MissingTypeOrCountIsAViolation) {
  // The config precondition is a NETDDT_CHECK, live in every build type.
  EXPECT_THROW(run_send(cfg(nullptr, SendStrategy::kPackSend)),
               sim::check::Violation);
  EXPECT_THROW(run_send(cfg(strided(4, 64), SendStrategy::kPackSend, 0)),
               sim::check::Violation);
}

TEST(Sender, IncompleteMessageRaisesAnError) {
  // An outbound engine without HPUs never emits a packet: run_send
  // reports the message that did not complete instead of reading it.
  SendConfig c = cfg(strided(64, 256), SendStrategy::kOutboundSpin);
  c.hpus = 0;
  try {
    run_send(c);
    FAIL() << "an incomplete message was reported as sent";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("msg 1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace netddt::offload
