// Integration tests for the offload strategies: every strategy must
// scatter the message correctly (verified byte-for-byte against the
// reference unpack), including out-of-order delivery, and the paper's
// qualitative performance relations must hold in the cost model.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dataloop/dataloop.hpp"
#include "offload/general.hpp"
#include "offload/runner.hpp"
#include "offload/specialized.hpp"
#include "sim/check.hpp"

namespace netddt::offload {
namespace {

using ddt::Datatype;
using ddt::TypePtr;

TypePtr vec_type(std::int64_t count, std::int64_t blocklen_bytes,
                 std::int64_t stride_bytes) {
  return Datatype::hvector(count, blocklen_bytes, stride_bytes,
                           Datatype::int8());
}

TypePtr nested_type() {
  // vector of vectors (not specializable): MILC-like.
  auto inner = Datatype::vector(4, 2, 4, Datatype::float64());
  return Datatype::hvector(8, 1, 1024, inner);
}

TypePtr wrf_like() {
  const std::vector<std::int64_t> sizes{16, 16};
  const std::vector<std::int64_t> sub{5, 7};
  const std::vector<std::int64_t> st1{1, 2}, st2{9, 4};
  auto a = Datatype::subarray(sizes, sub, st1, Datatype::float32());
  auto b = Datatype::subarray(sizes, sub, st2, Datatype::float32());
  const std::vector<std::int64_t> blocklens{1, 1};
  const std::vector<std::int64_t> displs{0, 1024};
  const std::vector<TypePtr> types{a, b};
  return Datatype::struct_type(blocklens, displs, types);
}

ReceiveConfig base_config(TypePtr type, StrategyKind strategy,
                          std::uint64_t count = 1) {
  ReceiveConfig cfg;
  cfg.type = std::move(type);
  cfg.count = count;
  cfg.strategy = strategy;
  return cfg;
}

constexpr StrategyKind kGeneralKinds[] = {
    StrategyKind::kHpuLocal, StrategyKind::kRoCp, StrategyKind::kRwCp};

TEST(Specialized, VectorHandlerExists) {
  auto plan = SpecializedPlan::create(vec_type(64, 128, 256), 1, {});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->descriptor_bytes(), 24u);
}

TEST(Specialized, NestedTypeHasNoHandler) {
  EXPECT_EQ(SpecializedPlan::create(nested_type(), 1, {}), nullptr);
}

TEST(Specialized, NormalizableNestedTypeGetsHandler) {
  // vector over contiguous(float64): normalizes to a plain vector.
  auto t = Datatype::vector(32, 2, 5, Datatype::contiguous(4, Datatype::float64()));
  EXPECT_NE(SpecializedPlan::create(t, 1, {}), nullptr);
}

TEST(Specialized, UnpacksVectorCorrectly) {
  auto run = run_receive(
      base_config(vec_type(4096, 256, 512), StrategyKind::kSpecialized));
  EXPECT_TRUE(run.result.verified);
  EXPECT_EQ(run.result.message_bytes, 4096u * 256u);
}

TEST(Specialized, UnpacksIndexedCorrectly) {
  const std::vector<std::int64_t> blocklens{300, 100, 500, 77};
  const std::vector<std::int64_t> displs{0, 400, 600, 1200};
  auto t = Datatype::indexed(blocklens, displs, Datatype::int32());
  auto run = run_receive(base_config(t, StrategyKind::kSpecialized, 16));
  EXPECT_TRUE(run.result.verified);
}

TEST(General, AllStrategiesUnpackNestedType) {
  for (auto kind : kGeneralKinds) {
    auto run = run_receive(base_config(nested_type(), kind, 8));
    EXPECT_TRUE(run.result.verified) << strategy_name(kind);
    EXPECT_GT(run.result.msg_time, 0) << strategy_name(kind);
  }
}

TEST(General, AllStrategiesUnpackStructOfSubarrays) {
  for (auto kind : kGeneralKinds) {
    auto run = run_receive(base_config(wrf_like(), kind, 4));
    EXPECT_TRUE(run.result.verified) << strategy_name(kind);
  }
}

TEST(General, OutOfOrderDeliveryStillCorrect) {
  for (auto kind : kGeneralKinds) {
    auto cfg = base_config(vec_type(8192, 64, 128), kind);
    cfg.ooo_window = 8;
    cfg.seed = 1234;
    auto run = run_receive(cfg);
    EXPECT_TRUE(run.result.verified)
        << strategy_name(kind) << " with out-of-order delivery";
  }
}

TEST(General, OutOfOrderSpecializedCorrect) {
  auto cfg = base_config(vec_type(8192, 64, 128), StrategyKind::kSpecialized);
  cfg.ooo_window = 16;
  auto run = run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
}

TEST(General, OutOfOrderCostsMoreForRwCp) {
  auto in_order = base_config(vec_type(16384, 64, 128), StrategyKind::kRwCp);
  auto ooo = in_order;
  ooo.ooo_window = 8;
  ooo.seed = 7;
  const auto a = run_receive(in_order);
  const auto b = run_receive(ooo);
  EXPECT_TRUE(b.result.verified);
  // Rollbacks add segment restores + catch-up: processing cannot be
  // cheaper than in-order.
  EXPECT_GE(b.result.msg_time, a.result.msg_time);
}

TEST(General, ByteMoverStrategyIsAViolation) {
  GeneralConfig gc;
  gc.kind = StrategyKind::kSpecialized;
  const spin::CostModel cost;
  try {
    GeneralPlan plan(nested_type(), 1, gc, cost);
    ADD_FAILURE() << "GeneralPlan accepted a specialized strategy";
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find(
                  std::string("not ") +
                  std::string(strategy_name(StrategyKind::kSpecialized))),
              std::string::npos)
        << v.what();
  }
}

TEST(LeafWindow, NestedTypeIsAViolation) {
  const dataloop::CompiledDataloop loops(nested_type());
  try {
    leaf_window(loops, 0, loops.total_bytes(),
                [](std::int64_t, std::uint64_t, std::uint32_t) {});
    ADD_FAILURE() << "leaf_window walked a nested dataloop";
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find("depth 2 for a vector type"),
              std::string::npos)
        << v.what();
  }
}

TEST(LeafWindow, StructLeafIsAViolation) {
  // No compiled type has a struct leaf; forge one to reach the check.
  const dataloop::CompiledDataloop loops(vec_type(4, 8, 16));
  ASSERT_TRUE(loops.root().leaf);
  const_cast<dataloop::Dataloop&>(loops.root()).kind =
      dataloop::LoopKind::kStruct;
  try {
    leaf_window(loops, 0, loops.total_bytes(),
                [](std::int64_t, std::uint64_t, std::uint32_t) {});
    ADD_FAILURE() << "leaf_window walked a struct leaf";
  } catch (const sim::check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find(
                  "leaf_window met a leaf dataloop of kind struct (kind 4)"),
              std::string::npos)
        << v.what();
  }
}

TEST(Iovec, UnpacksCorrectly) {
  auto run = run_receive(
      base_config(vec_type(2048, 128, 256), StrategyKind::kIovec));
  EXPECT_TRUE(run.result.verified);
  // 16 B per region entry.
  EXPECT_EQ(run.result.nic_descriptor_bytes, 2048u * 16u);
}

TEST(HostUnpack, BaselineDeliversPackedStream) {
  auto run = run_receive(
      base_config(vec_type(1024, 128, 256), StrategyKind::kHostUnpack));
  EXPECT_TRUE(run.result.verified);
  // Host traffic: message in + packed read + destination fills + write
  // backs: strictly more than the offloaded single write.
  EXPECT_GT(run.result.host_traffic_bytes, 2 * run.result.message_bytes);
}

TEST(Relations, SpecializedBeatsHostForMediumBlocks) {
  // Paper Fig 8: from 64 B blocks upward, offload wins clearly.
  auto t = vec_type(16384, 256, 512);  // 4 MiB message, 256 B blocks
  const auto spec =
      run_receive(base_config(t, StrategyKind::kSpecialized));
  const auto host = run_receive(base_config(t, StrategyKind::kHostUnpack));
  EXPECT_LT(spec.result.msg_time, host.result.msg_time);
}

TEST(Relations, HostBeatsOffloadForTinyBlocks) {
  // Paper Fig 8: at 4 B blocks host-based unpack wins.
  auto t = vec_type(64 * 1024, 4, 8);  // 256 KiB of 4 B blocks
  const auto rw = run_receive(base_config(t, StrategyKind::kRwCp));
  const auto host = run_receive(base_config(t, StrategyKind::kHostUnpack));
  EXPECT_GT(rw.result.msg_time, host.result.msg_time);
}

TEST(Relations, RwCpFasterThanRoCpAndHpuLocal) {
  // Paper Fig 8/12: RW-CP avoids both the checkpoint copy (RO-CP) and
  // the long catch-up (HPU-local).
  auto t = vec_type(16384, 128, 256);  // 2 MiB message, gamma = 16
  const auto rw = run_receive(base_config(t, StrategyKind::kRwCp));
  const auto ro = run_receive(base_config(t, StrategyKind::kRoCp));
  const auto hl = run_receive(base_config(t, StrategyKind::kHpuLocal));
  EXPECT_LT(rw.result.msg_time, ro.result.msg_time);
  EXPECT_LT(rw.result.msg_time, hl.result.msg_time);
}

TEST(Relations, SpecializedReachesLineRateAt2KiBBlocks) {
  // gamma = 1: one DMA per packet; 16 HPUs should sustain line rate.
  auto t = vec_type(2048, 2048, 4096);  // 4 MiB message
  auto run = run_receive(base_config(t, StrategyKind::kSpecialized));
  EXPECT_TRUE(run.result.verified);
  EXPECT_GT(run.result.throughput_gbps(), 180.0);
}

TEST(Relations, HandlerBreakdownShapes) {
  // Fig 12 shapes: RO-CP init dominated by the checkpoint copy;
  // HPU-local setup dominated by catch-up.
  auto t = vec_type(16384, 128, 256);
  const auto ro = run_receive(base_config(t, StrategyKind::kRoCp));
  EXPECT_GT(ro.result.handler_init, ro.result.handler_processing / 4)
      << "RO-CP init includes the segment copy";
  const auto hl = run_receive(base_config(t, StrategyKind::kHpuLocal));
  EXPECT_GT(hl.result.handler_setup, hl.result.handler_init)
      << "HPU-local setup includes the catch-up";
  const auto rw = run_receive(base_config(t, StrategyKind::kRwCp));
  EXPECT_LT(rw.result.handler_setup, hl.result.handler_setup)
      << "RW-CP avoids the catch-up";
}

TEST(Heuristic, IntervalShrinksWithMoreHpus) {
  IntervalInputs in;
  in.message_bytes = 4ull << 20;
  in.pkt_arrival = sim::from_ns(81.92);
  in.handler_runtime = sim::ns(800);
  in.nic_memory_budget = 2ull << 20;
  in.hpus = 4;
  const auto dr4 = choose_checkpoint_interval(in);
  in.hpus = 32;
  const auto dr32 = choose_checkpoint_interval(in);
  EXPECT_LE(dr32, dr4);
}

TEST(Heuristic, IntervalGrowsWhenMemoryTight) {
  IntervalInputs in;
  in.message_bytes = 4ull << 20;
  in.pkt_arrival = sim::from_ns(81.92);
  in.handler_runtime = sim::ns(3000);
  in.hpus = 16;
  in.nic_memory_budget = 64ull << 10;  // tiny: few checkpoints fit
  const auto dr = choose_checkpoint_interval(in);
  const auto cps = (in.message_bytes + dr - 1) / dr;
  EXPECT_LE(cps * dataloop::Segment::kFootprintBytes,
            in.nic_memory_budget + dataloop::Segment::kFootprintBytes);
}

TEST(Heuristic, IntervalIsPacketMultiple) {
  IntervalInputs in;
  in.message_bytes = 1ull << 20;
  in.pkt_arrival = sim::from_ns(81.92);
  in.handler_runtime = sim::ns(500);
  in.nic_memory_budget = 1ull << 20;
  const auto dr = choose_checkpoint_interval(in);
  EXPECT_EQ(dr % in.pkt_payload, 0u);
  EXPECT_GE(dr, in.pkt_payload);
}

TEST(Heuristic, SlowerHandlersAllowLargerIntervals) {
  IntervalInputs in;
  in.message_bytes = 4ull << 20;
  in.pkt_arrival = sim::from_ns(81.92);
  in.nic_memory_budget = 8ull << 20;
  in.handler_runtime = sim::ns(200);
  const auto fast = choose_checkpoint_interval(in);
  in.handler_runtime = sim::us(20);
  const auto slow = choose_checkpoint_interval(in);
  EXPECT_GE(slow, fast);
}

TEST(Accounting, CheckpointFootprintReported) {
  auto cfg = base_config(vec_type(8192, 128, 256), StrategyKind::kRwCp);
  auto run = run_receive(cfg);
  EXPECT_GT(run.result.checkpoints, 0u);
  EXPECT_GT(run.result.checkpoint_interval, 0u);
  EXPECT_GT(run.result.nic_descriptor_bytes,
            run.result.checkpoints * dataloop::Segment::kFootprintBytes);
}

TEST(Accounting, DmaWriteCountMatchesRegions) {
  auto t = vec_type(1024, 64, 128);
  auto run = run_receive(base_config(t, StrategyKind::kSpecialized));
  // One write per contiguous region + 1 completion signal.
  EXPECT_EQ(run.result.dma_writes, 1024u + 1u);
}

// Parameterized correctness sweep over strategies x block sizes.
class StrategySweep
    : public ::testing::TestWithParam<std::tuple<StrategyKind, int>> {};

TEST_P(StrategySweep, VerifiedAcrossBlockSizes) {
  const auto [kind, block] = GetParam();
  const std::int64_t count = (256 * 1024) / block;  // 256 KiB message
  auto cfg = base_config(vec_type(count, block, 2 * block), kind);
  cfg.hpus = 8;
  auto run = run_receive(cfg);
  EXPECT_TRUE(run.result.verified)
      << strategy_name(kind) << " block=" << block;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StrategySweep,
    ::testing::Combine(::testing::Values(StrategyKind::kSpecialized,
                                         StrategyKind::kHpuLocal,
                                         StrategyKind::kRoCp,
                                         StrategyKind::kRwCp,
                                         StrategyKind::kIovec),
                       ::testing::Values(16, 64, 256, 2048, 16384)));

// Every strategy must leave a queryable trail in the metrics registry:
// NIC-layer counters (packets matched, handler invocations, DMA queue
// high-watermark) plus the strategy-specific offload counters.
class MetricsPerStrategy : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(MetricsPerStrategy, NicCountersNonZero) {
  const StrategyKind kind = GetParam();
  auto cfg = base_config(vec_type(1024, 256, 512), kind);
  cfg.verify = false;
  const auto run = run_receive(cfg);
  const sim::MetricsSnapshot& m = run.metrics;

  EXPECT_GT(m.counter("nic.pkts.delivered"), 0u);
  EXPECT_GT(m.counter("nic.pkts.matched"), 0u);
  EXPECT_GT(m.counter("nic.dma.writes"), 0u);
  EXPECT_GT(m.gauge_peak("nic.dma.queue_depth"), 0);
  EXPECT_GT(m.counter("nic.msgs.completed"), 0u);
  if (kind == StrategyKind::kSpecialized || kind == StrategyKind::kHpuLocal ||
      kind == StrategyKind::kRoCp || kind == StrategyKind::kRwCp) {
    // These strategies park descriptor state in NIC memory.
    EXPECT_GT(m.gauge_peak("nic.mem.used"), 0);
  }
  if (kind != StrategyKind::kHostUnpack) {
    EXPECT_GT(m.counter("nic.handler.invocations"), 0u);
    EXPECT_EQ(m.counter("nic.handler.invocations"), run.result.handlers);
    EXPECT_GT(m.counter("nic.sched.handlers_run"), 0u);
    EXPECT_GT(m.gauge_peak("nic.pktbuf.occupancy"), 0);
  }
  // Snapshot-backed fields agree with the struct view.
  EXPECT_EQ(m.counter("nic.dma.writes"), run.result.dma_writes);
  EXPECT_EQ(static_cast<std::size_t>(m.gauge_peak("nic.dma.queue_depth")),
            run.result.dma_queue_peak);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MetricsPerStrategy,
                         ::testing::Values(StrategyKind::kHostUnpack,
                                           StrategyKind::kSpecialized,
                                           StrategyKind::kHpuLocal,
                                           StrategyKind::kRoCp,
                                           StrategyKind::kRwCp,
                                           StrategyKind::kIovec));

TEST(Metrics, RoCpCountsCheckpointCopies) {
  auto cfg = base_config(vec_type(1024, 256, 512), StrategyKind::kRoCp);
  cfg.verify = false;
  const auto run = run_receive(cfg);
  // RO-CP copies a checkpoint locally in EVERY payload handler.
  EXPECT_EQ(run.metrics.counter("offload.checkpoint.copies"),
            run.result.handlers);
  EXPECT_GT(run.metrics.counter("offload.checkpoints"), 0u);
}

TEST(Metrics, RwCpCountsRollbacksUnderOutOfOrderDelivery) {
  auto in_order = base_config(vec_type(16384, 64, 128), StrategyKind::kRwCp);
  auto ooo = in_order;
  ooo.ooo_window = 8;
  ooo.seed = 7;
  const auto a = run_receive(in_order);
  const auto b = run_receive(ooo);
  EXPECT_EQ(a.metrics.counter("offload.rollbacks"), 0u);
  EXPECT_GT(b.metrics.counter("offload.rollbacks"), 0u);
  // Each rollback restores the master checkpoint (a copy).
  EXPECT_EQ(b.metrics.counter("offload.checkpoint.copies"),
            b.metrics.counter("offload.rollbacks"));
  EXPECT_TRUE(b.result.verified);
}

TEST(Metrics, HpuLocalCountsSegmentResetsUnderOutOfOrderDelivery) {
  // 4 HPUs with a 16-slot shuffle window: each window holds 4 packets of
  // every vHPU, so per-vHPU streams really do arrive backwards.
  auto cfg = base_config(vec_type(8192, 64, 128), StrategyKind::kHpuLocal);
  cfg.hpus = 4;
  cfg.ooo_window = 16;
  cfg.seed = 7;
  const auto run = run_receive(cfg);
  EXPECT_GT(run.metrics.counter("offload.segment_resets"), 0u);
  EXPECT_TRUE(run.result.verified);
}

TEST(Metrics, CheckpointIntervalPublished) {
  auto cfg = base_config(vec_type(4096, 128, 256), StrategyKind::kRwCp);
  cfg.verify = false;
  const auto run = run_receive(cfg);
  EXPECT_EQ(run.metrics.counter("offload.checkpoint.interval_bytes"),
            run.result.checkpoint_interval);
  EXPECT_EQ(run.metrics.counter("offload.checkpoints"),
            run.result.checkpoints);
}

}  // namespace
}  // namespace netddt::offload
