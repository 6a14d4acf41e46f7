// Tests for the message driver: conservation at the drain, and one
// message path that verifies on any topology under any strategy.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "fabric/topology.hpp"
#include "offload/driver.hpp"
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
    EXPECT_NE(what.find("1 offered, 0 completed, 0 failed"),
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
