// Tests for the multi-node fabric: topology routing, port contention,
// lossless and reliable delivery into full NIC pipelines, packet-level
// collectives with end-to-end verification, and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "fabric/collectives.hpp"
#include "fabric/fabric.hpp"
#include "fabric/topology.hpp"
#include "goal/fft2d.hpp"
#include "p4/put.hpp"
#include "sim/check.hpp"
#include "sim/trace/blame.hpp"
#include "sim/trace/trace.hpp"

namespace netddt::fabric {
namespace {

TopologyConfig small_fat_tree(std::uint32_t nodes) {
  TopologyConfig tc;
  tc.kind = TopologyKind::kFatTree;
  tc.nodes = nodes;
  tc.leaf_radix = 4;
  tc.spines = 2;
  return tc;
}

TEST(Topology, FatTreeRoutesAreWellFormed) {
  auto topo = make_topology(small_fat_tree(16));
  ASSERT_NE(topo, nullptr);
  EXPECT_EQ(topo->nodes(), 16u);
  std::vector<std::uint32_t> route;
  for (std::uint32_t s = 0; s < 16; ++s) {
    for (std::uint32_t d = 0; d < 16; ++d) {
      if (s == d) continue;
      topo->route(s, d, route);
      // Injection first, ejection last; every port id in range.
      ASSERT_GE(route.size(), 2u);
      EXPECT_EQ(route.front(), s);
      for (std::uint32_t p : route) EXPECT_LT(p, topo->port_count());
      // Same leaf: straight through one switch. Cross-leaf: up to a
      // spine and back down (two extra ports).
      const bool same_leaf = s / 4 == d / 4;
      EXPECT_EQ(route.size(), same_leaf ? 2u : 4u);
    }
  }
}

TEST(Topology, FatTreeRoutingIsDeterministicAndSpreadsSpines) {
  auto topo = make_topology(small_fat_tree(16));
  std::vector<std::uint32_t> a, b;
  std::set<std::uint32_t> spine_ports;
  for (std::uint32_t s = 0; s < 16; ++s) {
    for (std::uint32_t d = 0; d < 16; ++d) {
      if (s == d || s / 4 == d / 4) continue;
      topo->route(s, d, a);
      topo->route(s, d, b);
      EXPECT_EQ(a, b);  // oblivious: pure function of (src, dst)
      spine_ports.insert(a[1]);
    }
  }
  // ECMP hashing uses more than one spine across the pair set.
  EXPECT_GT(spine_ports.size(), 1u);
}

TEST(Topology, DragonflyRoutesAreWellFormed) {
  TopologyConfig tc;
  tc.kind = TopologyKind::kDragonfly;
  tc.nodes = 16;
  tc.group_routers = 2;
  tc.router_nodes = 2;  // 4 groups of 2x2
  auto topo = make_topology(tc);
  std::vector<std::uint32_t> route;
  for (std::uint32_t s = 0; s < 16; ++s) {
    for (std::uint32_t d = 0; d < 16; ++d) {
      if (s == d) continue;
      topo->route(s, d, route);
      ASSERT_GE(route.size(), 2u);
      EXPECT_EQ(route.front(), s);
      for (std::uint32_t p : route) EXPECT_LT(p, topo->port_count());
      // Minimal routing: at most local + global + local between the
      // injection and ejection ports.
      EXPECT_LE(route.size(), 5u);
    }
  }
}

CollectiveConfig base_config(CollectiveKind kind) {
  CollectiveConfig cc;
  cc.kind = kind;
  cc.fabric.topology = small_fat_tree(8);
  cc.block_bytes = 1024;
  cc.rounds = 2;
  cc.arrivals.rate = 1e8;  // 10 us mean round gap
  cc.seed = 7;
  return cc;
}

TEST(Fabric, SendToUnattachedNodeIsAViolation) {
  // Preconditions are NETDDT_CHECKs, live in every build type once the
  // checker is on, and name the route and message.
  sim::check::ScopedEnable checks;
  sim::Engine engine;
  FabricConfig fc;
  fc.topology = small_fat_tree(4);
  Fabric fab(engine, fc);
  std::vector<std::byte> data(64, std::byte{1});
  const auto packets = p4::packetize(7, 1, data);
  try {
    fab.send(0, 2, packets, 0);
    FAIL() << "send to an unattached node was accepted";
  } catch (const sim::check::Violation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("src 0 -> dst 2"), std::string::npos) << what;
    EXPECT_NE(what.find("msg 7"), std::string::npos) << what;
  }
  spin::Host host(1 << 16);
  spin::NicModel nic(engine, host);
  EXPECT_THROW(fab.attach(4, nic), sim::check::Violation);
  fab.attach(2, nic);
  EXPECT_THROW(fab.send(2, 2, packets, 0), sim::check::Violation);
}

TEST(Fabric, MultiHopReceiveIsAttributedEndToEnd) {
  // A cross-leaf fat-tree route (injection, leaf up, spine down,
  // ejection) feeds the destination NIC's blame ledger: queueing behind
  // an earlier message at the injection port is sender-queue time,
  // every hop is wire time, and the stages tile the message's window
  // with no gap.
  sim::Engine engine;
  FabricConfig fc;
  fc.topology = small_fat_tree(16);
  Fabric fab(engine, fc);
  spin::Host host(1 << 20);
  spin::NicModel nic(engine, host, fc.cost);
  sim::trace::TraceConfig tc;
  tc.blame = true;
  sim::trace::Tracer tracer(tc);
  nic.set_tracer(&tracer);
  fab.attach(13, nic);
  for (std::uint64_t bits : {1, 2}) {
    p4::MatchEntry me;
    me.match_bits = bits;
    me.buffer_offset = static_cast<std::int64_t>(bits) << 16;
    me.length = 1 << 16;
    nic.match_list().append(p4::ListKind::kPriority, me);
  }

  std::vector<std::byte> data(16 * 2048, std::byte{3});
  const auto ahead = p4::packetize(8, 2, data);  // not in the ledger
  const auto packets = p4::packetize(9, 1, data);
  std::vector<std::uint32_t> route;
  fab.topology().route(1, 13, route);
  ASSERT_GE(route.size(), 3u);
  tracer.blame()->open(9, 0);
  fab.send(1, 13, ahead, 0);
  fab.send(1, 13, packets, 0);
  engine.run();

  const auto* info = nic.info(9);
  ASSERT_NE(info, nullptr);
  ASSERT_TRUE(info->done);
  const auto* a = tracer.blame()->close(9, info->unpack_done);
  ASSERT_NE(a, nullptr);
  auto stage = [a](sim::trace::BlameStage s) {
    return a->stage[static_cast<std::size_t>(s)];
  };
  EXPECT_GT(stage(sim::trace::BlameStage::kSenderQueue), 0);
  EXPECT_GT(stage(sim::trace::BlameStage::kWire), 0);
  EXPECT_EQ(stage(sim::trace::BlameStage::kUnattributed), 0);
  EXPECT_EQ(a->sum(), a->total);
  EXPECT_EQ(a->total, info->unpack_done);
}

TEST(Collectives, AlltoallDeliversAndVerifies) {
  const auto run = run_collective(base_config(CollectiveKind::kAlltoall));
  EXPECT_EQ(run.messages, 2u * 8 * 7);
  EXPECT_EQ(run.completed, run.messages);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(run.verified_windows, run.messages);
  EXPECT_EQ(run.mismatched_windows, 0u);
  EXPECT_EQ(run.skipped_windows, 0u);
  EXPECT_GT(run.goodput_gbps, 0.0);
  EXPECT_GT(run.makespan, 0);
  ASSERT_EQ(run.completion_us.size(), run.messages);
  EXPECT_LE(run.p50_us, run.p99_us);
  EXPECT_LE(run.p99_us, run.p999_us);
  ASSERT_EQ(run.round_us.size(), 2u);
  EXPECT_GT(run.round_us[0], 0.0);
}

TEST(Collectives, AllgatherDeliversAndVerifies) {
  const auto run = run_collective(base_config(CollectiveKind::kAllgather));
  EXPECT_EQ(run.completed, run.messages);
  EXPECT_EQ(run.verified_windows, run.messages);
  EXPECT_EQ(run.mismatched_windows, 0u);
}

TEST(Collectives, ReduceScatterCombinesContributionsInNic) {
  const auto run =
      run_collective(base_config(CollectiveKind::kReduceScatter));
  EXPECT_EQ(run.completed, run.messages);
  // One verified window per (destination, round).
  EXPECT_EQ(run.verified_windows, 8u * 2);
  EXPECT_EQ(run.mismatched_windows, 0u);
  EXPECT_EQ(run.skipped_windows, 0u);
}

TEST(Collectives, HostBaselineLandsPackedSlots) {
  auto cfg = base_config(CollectiveKind::kAlltoall);
  cfg.offload = false;
  const auto run = run_collective(cfg);
  EXPECT_EQ(run.completed, run.messages);
  EXPECT_EQ(run.verified_windows, run.messages);
  EXPECT_EQ(run.mismatched_windows, 0u);
}

TEST(Collectives, DragonflyCarriesTheSameTraffic) {
  auto cfg = base_config(CollectiveKind::kAlltoall);
  cfg.fabric.topology.kind = TopologyKind::kDragonfly;
  cfg.fabric.topology.group_routers = 2;
  cfg.fabric.topology.router_nodes = 2;
  const auto run = run_collective(cfg);
  EXPECT_EQ(run.completed, run.messages);
  EXPECT_EQ(run.mismatched_windows, 0u);
}

TEST(Collectives, LossyRunComposesReliableTransport) {
  auto cfg = base_config(CollectiveKind::kAlltoall);
  cfg.block_bytes = 4096;  // multi-packet puts exercise held completion
  cfg.faults.drop_rate = 0.05;
  cfg.faults.dup_rate = 0.05;
  cfg.faults.reorder_rate = 0.10;
  cfg.faults.seed = 3;
  const auto run = run_collective(cfg);
  EXPECT_EQ(run.completed + run.failed, run.messages);
  EXPECT_GT(run.completed, 0u);
  // Every completed window holds exactly the sent bytes despite drops,
  // duplicates and reordering.
  EXPECT_EQ(run.mismatched_windows, 0u);
  EXPECT_EQ(run.verified_windows + run.skipped_windows, run.messages);
  const auto& m = run.fabric_metrics;
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(counter("fabric.drops"), 0u);
  EXPECT_GT(counter("fabric.retransmits"), 0u);
  EXPECT_GT(counter("fabric.acks"), 0u);
}

TEST(Collectives, LossyReduceScatterSkipsFailedWindows) {
  auto cfg = base_config(CollectiveKind::kReduceScatter);
  cfg.faults.drop_rate = 0.05;
  cfg.faults.dup_rate = 0.10;  // RMW landing must gate duplicate replay
  cfg.faults.reorder_rate = 0.10;
  cfg.faults.seed = 11;
  const auto run = run_collective(cfg);
  EXPECT_EQ(run.completed + run.failed, run.messages);
  EXPECT_EQ(run.mismatched_windows, 0u);
  EXPECT_EQ(run.verified_windows + run.skipped_windows, 8u * 2);
}

TEST(Collectives, RunsAreDeterministic) {
  auto cfg = base_config(CollectiveKind::kAlltoall);
  cfg.faults.drop_rate = 0.02;
  cfg.faults.reorder_rate = 0.05;
  const auto a = run_collective(cfg);
  const auto b = run_collective(cfg);
  EXPECT_EQ(a.completion_us, b.completion_us);
  EXPECT_EQ(a.goodput_gbps, b.goodput_gbps);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Collectives, CongestionStretchesCompletionTimes) {
  // Oversubscribe: one spine, deep blocks — queueing must show up in
  // the tail relative to a lightly loaded fabric.
  auto light = base_config(CollectiveKind::kAlltoall);
  light.rounds = 1;
  auto heavy = light;
  heavy.fabric.topology.spines = 1;
  heavy.block_bytes = 8192;
  const auto lr = run_collective(light);
  const auto hr = run_collective(heavy);
  EXPECT_GT(hr.p99_us, lr.p99_us);
  const auto wait = [](const sim::MetricsSnapshot& m) -> std::uint64_t {
    const auto it = m.counters.find("fabric.queue_wait_ps");
    return it == m.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(wait(hr.fabric_metrics), wait(lr.fabric_metrics));
}

TEST(Fft2d, FabricNetModelProducesScalingPoints) {
  goal::Fft2dConfig cfg;
  cfg.n = 512;
  cfg.nodes = 8;
  cfg.net_model = goal::NetModel::kFabric;
  cfg.unpack = offload::StrategyKind::kRwCp;
  const auto off = goal::run_fft2d(cfg);
  EXPECT_GT(off.total, 0);
  EXPECT_GT(off.communicate, 0);
  EXPECT_EQ(off.unpack, 0);  // datatype cost rides inside communicate
  cfg.unpack = offload::StrategyKind::kHostUnpack;
  const auto host = goal::run_fft2d(cfg);
  EXPECT_GT(host.unpack, 0);  // CPU unpack stays on the critical path
  EXPECT_EQ(host.compute, off.compute);
}

TEST(Fft2d, NetModelNamesRoundTrip) {
  EXPECT_EQ(goal::parse_net_model("loggp"), goal::NetModel::kLogGP);
  EXPECT_EQ(goal::parse_net_model("fabric"), goal::NetModel::kFabric);
  EXPECT_FALSE(goal::parse_net_model("bogus").has_value());
  EXPECT_STREQ(goal::net_model_name(goal::NetModel::kFabric), "fabric");
}

}  // namespace
}  // namespace netddt::fabric
