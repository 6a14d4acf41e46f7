// Tests for the message driver: conservation at the drain, one message
// path that verifies on any topology under any strategy, and typed
// sources sent with each sender strategy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "ddt/pack.hpp"
#include "fabric/topology.hpp"
#include "offload/driver.hpp"
#include "offload/host_model.hpp"
#include "sim/check.hpp"

namespace netddt::offload {
namespace {

World point_to_point_world() {
  return World{.fabric = fabric::point_to_point(spin::CostModel{}),
               .host_bytes = {0, 1 << 16}};
}

TEST(MessageDriver, UnmatchedOfferFailsTheDrainCheck) {
  // The NIC drops a message no posted entry matches, so it neither
  // completes nor fails: the drain reports it.
  MessageDriver driver(point_to_point_world());
  driver.post({.bits = 1, .window = {.bytes = 4096}});
  driver.offer({.id = 7, .to = {.bits = 2, .window = {.bytes = 4096}}},
               1024);
  try {
    driver.drain(1);
    FAIL() << "drain accepted a message that never completed";
  } catch (const sim::check::Violation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("1 offered, 0 completed, 0 failed, msg 7"),
              std::string::npos)
        << what;
  }
  EXPECT_GT(driver.nic(1).metrics().snapshot().counter("nic.pkts.dropped"),
            0u);
}

TEST(MessageDriver, MissingOffersFailTheDrainCheck) {
  MessageDriver driver(point_to_point_world());
  driver.post({.bits = 1, .window = {.bytes = 4096}});
  driver.offer({.id = 1, .to = {.bits = 1, .window = {.bytes = 4096}}},
               1024);
  EXPECT_THROW(driver.drain(2), sim::check::Violation);
}

TEST(MessageDriver, PackedLandingVerifiesAndReleasesAtDone) {
  MessageDriver driver(point_to_point_world());
  const Landing to{.bits = 1, .window = {.base = 128, .bytes = 4096}};
  driver.post(to);
  driver.offer({.id = 1, .to = to, .seed = 3}, 4096);
  driver.drain(1);
  EXPECT_EQ(driver.completed(), 1u);
  EXPECT_EQ(driver.verified(), 1u);
  EXPECT_EQ(driver.in_flight(), 0u);
  EXPECT_EQ(driver.peak_payload_bytes(), 4096u);
}

// The release hook runs once per message, after the verify counters
// moved: at done on a lossless wire, at the drain for a held (lossy) or
// failed message. Each world's engine runs to the end before its drain,
// so a release seen then happened at done.
TEST(MessageDriver, ReleaseHookRunsAfterVerification) {
  struct Seen {
    std::vector<std::uint64_t> ids;
    void watch(MessageDriver& d) {
      d.on_release = [this, &d](const Message& m) {
        ids.push_back(m.id);
        EXPECT_EQ(d.verified() + d.mismatched() + d.skipped(), ids.size())
            << "msg " << m.id << " released before its check counted";
      };
    }
  };
  const Landing good{.bits = 1, .window = {.base = 0, .bytes = 4096}};
  // Lands at 4096 (its posted entry) but is checked at 8192.
  const Landing moved{.bits = 2, .window = {.base = 8192, .bytes = 4096}};

  MessageDriver lossless(point_to_point_world());
  Seen at_done;
  at_done.watch(lossless);
  lossless.post(good);
  lossless.post({.bits = 2, .window = {.base = 4096, .bytes = 4096}});
  lossless.offer({.id = 1, .to = good, .seed = 3}, 4096);
  lossless.offer({.id = 2, .to = moved, .seed = 4}, 4096);
  lossless.engine().run();
  EXPECT_EQ(at_done.ids, (std::vector<std::uint64_t>{1, 2}));
  lossless.drain(2);
  EXPECT_EQ(at_done.ids.size(), 2u) << "the drain released a message again";
  EXPECT_EQ(lossless.verified(), 1u);
  EXPECT_EQ(lossless.mismatched(), 1u);

  World dup_world = point_to_point_world();
  dup_world.faults = {.dup_rate = 0.5, .seed = 5};
  MessageDriver held(dup_world);
  Seen at_drain;
  at_drain.watch(held);
  held.post(good);
  held.offer({.id = 1, .to = good, .seed = 3}, 4096);
  held.engine().run();
  EXPECT_EQ(held.completed(), 1u);
  EXPECT_TRUE(at_drain.ids.empty()) << "a held message released at done";
  held.drain(1);
  EXPECT_EQ(at_drain.ids, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(held.verified(), 1u);

  World drop_world = point_to_point_world();
  drop_world.faults = {.drop_rate = 1.0, .seed = 5};
  drop_world.retransmit.max_retries = 2;
  MessageDriver failing(drop_world);
  Seen failed;
  failed.watch(failing);
  failing.post(good);
  failing.offer({.id = 1, .to = good, .seed = 3}, 4096);
  failing.engine().run();
  EXPECT_EQ(failing.failed(), 1u);
  EXPECT_TRUE(failed.ids.empty()) << "a failed message released early";
  failing.drain(1);
  EXPECT_EQ(failed.ids, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(failing.skipped(), 1u);
}

// A plan registers one execution context with its node's NIC, however
// many receives land through it, and may be posted on that node only.
TEST(MessageDriver, PostsOfOnePlanShareOneContext) {
  constexpr std::uint32_t K = 8;
  const auto type = ddt::Datatype::vector(16, 2, 4, ddt::Datatype::int32());
  const Window slot = receive_window(*type, 1);
  World world = point_to_point_world();
  world.host_bytes = {1 << 16, 1 << 16};  // node 0 receives too
  MessageDriver driver(world);
  ReceiveConfig spec;
  spec.type = type;
  spec.strategy = StrategyKind::kSpecialized;
  const Plan& plan = driver.install(1, spec);
  const std::size_t before = driver.nic(1).registered_contexts();
  std::vector<Landing> landings;
  for (std::uint32_t k = 0; k < K; ++k) {
    Landing to{.bits = k + 1,
               .window = slot,
               .plan = &plan,
               .check = Landing::Check::kSlot,
               .type = type};
    to.window.base = static_cast<std::int64_t>(k * slot.bytes);
    driver.post(to);
    landings.push_back(to);
  }
  EXPECT_EQ(driver.nic(1).registered_contexts(), before + 1);
  for (std::uint32_t k = 0; k < K; ++k) {
    driver.offer({.id = k + 1, .to = landings[k], .seed = k}, type->size());
  }
  driver.drain(K);
  EXPECT_EQ(driver.verified(), K);
  EXPECT_EQ(driver.nic(1).registered_contexts(), before + 1);

  Landing elsewhere = landings[0];
  elsewhere.node = 0;
  try {
    driver.post(elsewhere);
    FAIL() << "a plan installed on node 1 was posted on node 0";
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find("posted on node 0"),
              std::string::npos)
        << v.what();
  }
}

// send_issue: when each host-issued packet of a typed source is ready.
Source source_of(ddt::TypePtr type, SendStrategy strategy) {
  return Source{.type = std::move(type), .strategy = strategy};
}

TEST(SendIssue, StreamingPacketWaitsForTheRegionHoldingItsLastByte) {
  // Three 1000 B regions, 2048 B packets: packet 0 ends inside region 3
  // and packet 1 is the message's tail, so both leave after region 3.
  const spin::CostModel c;
  const auto ready = send_issue(
      source_of(ddt::Datatype::hvector(3, 1000, 2000, ddt::Datatype::int8()),
                SendStrategy::kStreamingPut),
      c);
  const sim::Time region = 4 * c.host_block_overhead;
  EXPECT_EQ(ready, (std::vector<sim::Time>{3 * region, 3 * region}));
  // Four 1024 B regions: packet 0 ends with region 2, so it leaves
  // while the CPU still walks regions 3 and 4.
  EXPECT_EQ(send_issue(source_of(ddt::Datatype::hvector(
                                     4, 1024, 2048, ddt::Datatype::int8()),
                                 SendStrategy::kStreamingPut),
                       c),
            (std::vector<sim::Time>{2 * region, 4 * region}));
}

TEST(SendIssue, ZeroSizeTypeIssuesOneEmptyPacketAtZero) {
  const auto ready = send_issue(
      source_of(ddt::Datatype::contiguous(0, ddt::Datatype::int64()),
                SendStrategy::kStreamingPut),
      spin::CostModel{});
  EXPECT_EQ(ready, std::vector<sim::Time>{0});
}

TEST(SendIssue, PackSendReadiesEveryPacketAfterThePack) {
  const spin::CostModel c;
  const auto type =
      ddt::Datatype::hvector(1024, 64, 128, ddt::Datatype::int8());
  const auto ready =
      send_issue(source_of(type, SendStrategy::kPackSend), c);
  ASSERT_EQ(ready.size(), p4::packet_count(type->size(), c.pkt_payload));
  for (const sim::Time t : ready) EXPECT_EQ(t, host_pack_time(*type, 1, c));
  EXPECT_THROW(send_issue(source_of(type, SendStrategy::kOutboundSpin), c),
               sim::check::Violation);
}

TEST(MessageDriver, TypedSourceNeedsALosslessInOrderSend) {
  const auto type = ddt::Datatype::hvector(64, 64, 128, ddt::Datatype::int8());
  const Window window = receive_window(*type, 1);
  const Source source{.type = type, .window = window};
  for (const bool lossy : {true, false}) {
    World world = point_to_point_world();
    world.host_bytes[0] = window.bytes;
    if (lossy) {
      world.faults = {.drop_rate = 0.1, .seed = 3};
    } else {
      world.ooo_window = 4;
    }
    MessageDriver driver(world);
    const Landing to{.bits = 1, .window = {.bytes = type->size()}};
    driver.post(to);
    try {
      driver.offer({.id = 5, .to = to}, type->size(), nullptr, &source);
      FAIL() << "a typed source was offered with "
             << (lossy ? "faults" : "a reorder window");
    } catch (const sim::check::Violation& v) {
      EXPECT_NE(std::string(v.what()).find("msg 5"), std::string::npos)
          << v.what();
    }
  }
}

// Every node of a 4-node fat-tree sends a typed source with one sender
// strategy to each peer, which lands it through an RW-CP plan: both ends
// are non-contiguous, packets cross up to three hops, host-issued
// packets carry ready times and outbound ones leave one by one. Each
// (source, destination) pair has its own source window, since outbound
// handlers read the window long after the offer.
class SourceOnFatTree : public ::testing::TestWithParam<SendStrategy> {};

TEST_P(SourceOnFatTree, EveryStrategyLandsTheSource) {
  constexpr std::uint32_t P = 4;
  const apps::Workload app = apps::lammps('a');
  Window slot = receive_window(*app.type, app.count);
  slot.bytes = (slot.bytes + 63) & ~std::uint64_t{63};

  World world;
  world.fabric.topology = {.kind = fabric::TopologyKind::kFatTree,
                           .nodes = P,
                           .leaf_radix = 2,
                           .spines = 2};
  world.host_bytes.assign(P, 2 * P * slot.bytes);  // landings, then sources
  world.trace.blame = true;  // each message's stages must tile its window
  MessageDriver driver(world);

  ReceiveConfig spec;
  spec.type = app.type;
  spec.count = app.count;
  spec.strategy = StrategyKind::kRwCp;
  std::vector<const Plan*> plans;
  const auto landing = [&](std::uint32_t d, std::uint32_t s) {
    Landing to{.node = d,
               .bits = s,
               .window = slot,
               .plan = plans[d],
               .check = Landing::Check::kSlot,
               .type = app.type,
               .count = app.count};
    to.window.base = static_cast<std::int64_t>(s * slot.bytes);
    return to;
  };
  for (std::uint32_t d = 0; d < P; ++d) {
    plans.push_back(&driver.install(d, spec));
    for (std::uint32_t s = 0; s < P; ++s) {
      if (s != d) driver.post(landing(d, s));
    }
  }
  for (std::uint32_t s = 0; s < P; ++s) {
    for (std::uint32_t d = 0; d < P; ++d) {
      if (s == d) continue;
      Source source{app.type, app.count, slot, GetParam()};
      source.window.base = static_cast<std::int64_t>((P + d) * slot.bytes);
      const std::span<const std::byte> sent =
          driver.offer({.id = s * P + d + 1,
                        .src = s,
                        .to = landing(d, s),
                        .seed = s * P + d},
                       app.message_bytes(), nullptr, &source);
      // The source window holds the payload in the type's layout.
      std::vector<std::byte> packed(sent.size());
      ddt::pack(driver.host(s).memory().data() + source.window.at(),
                *app.type, app.count, packed.data());
      ASSERT_TRUE(std::equal(packed.begin(), packed.end(), sent.begin()));
    }
  }
  driver.drain(P * (P - 1));

  EXPECT_EQ(driver.completed(), P * (P - 1));
  EXPECT_EQ(driver.verified(), P * (P - 1));
  EXPECT_EQ(driver.mismatched(), 0u);
  EXPECT_GT(driver.fabric().metrics().snapshot().counter("fabric.pkts"),
            0u);
  EXPECT_EQ(driver.tracer()->blame()->completed().size(), P * (P - 1));
}

INSTANTIATE_TEST_SUITE_P(
    SendStrategies, SourceOnFatTree,
    ::testing::Values(SendStrategy::kPackSend, SendStrategy::kStreamingPut,
                      SendStrategy::kOutboundSpin),
    [](const ::testing::TestParamInfo<SendStrategy>& info) {
      return info.param == SendStrategy::kPackSend       ? std::string("Pack")
             : info.param == SendStrategy::kStreamingPut ? std::string("Stream")
                                                         : std::string("Outbound");
    });

// No other test runs a general strategy on more than two nodes: every
// node of a 4-node fat-tree receives a Fig 16 app datatype from each
// peer over a lossy wire, and every slot, gaps included, must hold the
// unpacked stream.
class DriverOnFatTree : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(DriverOnFatTree, AppDatatypeVerifiesUnderFaults) {
  constexpr std::uint32_t P = 4;
  const apps::Workload app = apps::lammps('a');
  Window slot = receive_window(*app.type, app.count);
  slot.bytes = (slot.bytes + 63) & ~std::uint64_t{63};

  World world;
  world.fabric.topology = {.kind = fabric::TopologyKind::kFatTree,
                           .nodes = P,
                           .leaf_radix = 2,
                           .spines = 2};
  world.host_bytes.assign(P, slot.bytes * P);
  world.faults = {.drop_rate = 0.05,
                  .dup_rate = 0.05,
                  .reorder_rate = 0.05,
                  .seed = 17};
  MessageDriver driver(world);

  ReceiveConfig spec;
  spec.type = app.type;
  spec.count = app.count;
  spec.strategy = GetParam();
  std::vector<const Plan*> plans;
  const auto landing = [&](std::uint32_t d, std::uint32_t s) {
    Landing to{.node = d,
               .bits = s,
               .window = slot,
               .plan = plans[d],
               .check = Landing::Check::kSlot,
               .type = app.type,
               .count = app.count};
    to.window.base = static_cast<std::int64_t>(s * slot.bytes);
    return to;
  };
  for (std::uint32_t d = 0; d < P; ++d) {
    plans.push_back(&driver.install(d, spec));
    for (std::uint32_t s = 0; s < P; ++s) {
      if (s != d) driver.post(landing(d, s));
    }
  }
  for (std::uint32_t s = 0; s < P; ++s) {
    for (std::uint32_t d = 0; d < P; ++d) {
      if (s == d) continue;
      driver.offer({.id = s * P + d + 1,
                    .src = s,
                    .to = landing(d, s),
                    .seed = s * P + d},
                   app.message_bytes());
    }
  }
  driver.drain(P * (P - 1));

  EXPECT_EQ(driver.failed(), 0u);
  EXPECT_EQ(driver.verified(), P * (P - 1));
  EXPECT_EQ(driver.mismatched(), 0u);
  EXPECT_GT(driver.fabric().metrics().snapshot().counter("fabric.retransmits"),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DriverOnFatTree,
    ::testing::Values(StrategyKind::kRwCp, StrategyKind::kSpecialized),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return info.param == StrategyKind::kRwCp ? std::string("RwCp")
                                               : std::string("Specialized");
    });

}  // namespace
}  // namespace netddt::offload
