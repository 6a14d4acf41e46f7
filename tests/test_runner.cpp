// Edge-case and accounting tests for the receive-experiment driver:
// single-packet and odd-sized messages, gamma reporting, packet-buffer
// stats, HPU-count effects, determinism, the byte-moving verification
// check, and zero-on-demand host memory under sparse receives.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataloop/cache.hpp"
#include "ddt/datatype.hpp"
#include "ddt/pack.hpp"
#include "offload/runner.hpp"
#include "offload/specialized.hpp"

namespace netddt::offload {
namespace {

using ddt::Datatype;

ReceiveConfig vec_cfg(std::int64_t count, std::int64_t block,
                      StrategyKind kind) {
  ReceiveConfig cfg;
  cfg.type = Datatype::hvector(count, block, 2 * block, Datatype::int8());
  cfg.strategy = kind;
  return cfg;
}

// Invalid configs throw (in every build type) with the field's name.
void expect_invalid(const ReceiveConfig& cfg, const std::string& field) {
  try {
    run_receive(cfg);
    ADD_FAILURE() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Runner, RejectsMissingType) {
  ReceiveConfig cfg = vec_cfg(8, 64, StrategyKind::kRwCp);
  cfg.type = nullptr;
  expect_invalid(cfg, "ReceiveConfig.type");
}

TEST(Runner, RejectsZeroCount) {
  ReceiveConfig cfg = vec_cfg(8, 64, StrategyKind::kRwCp);
  cfg.count = 0;
  expect_invalid(cfg, "ReceiveConfig.count");
}

TEST(Runner, SinglePacketMessage) {
  for (auto kind :
       {StrategyKind::kSpecialized, StrategyKind::kRwCp,
        StrategyKind::kHostUnpack, StrategyKind::kIovec}) {
    auto cfg = vec_cfg(8, 64, kind);  // 512 B: one packet
    const auto r = run_receive(cfg).result;
    EXPECT_EQ(r.packets, 1u) << strategy_name(kind);
    EXPECT_TRUE(r.verified) << strategy_name(kind);
    EXPECT_GT(r.msg_time, 0) << strategy_name(kind);
  }
}

TEST(Runner, NonMultipleOfPacketSize) {
  // 5000 B message: last packet is partial.
  auto cfg = vec_cfg(100, 50, StrategyKind::kRwCp);
  const auto r = run_receive(cfg).result;
  EXPECT_EQ(r.message_bytes, 5000u);
  EXPECT_EQ(r.packets, 3u);
  EXPECT_TRUE(r.verified);
}

TEST(Runner, BlockLargerThanPacket) {
  // 8 KiB blocks span four packets each.
  auto cfg = vec_cfg(32, 8192, StrategyKind::kSpecialized);
  const auto r = run_receive(cfg).result;
  EXPECT_LT(r.gamma, 1.1);
  EXPECT_TRUE(r.verified);
}

TEST(Runner, SparseTypeWithNonZeroFirstDisplacement) {
  // Regression: a type whose first region starts deep into the buffer
  // (lb > 0) has ub > extent; sizing the receive buffer off
  // count*extent under-allocates and the last regions DMA out of
  // bounds. Scatter to the far end of a sparse vertex array.
  std::vector<std::int64_t> displs;
  for (std::int64_t v = 1000; v < 4000; v += 997) displs.push_back(v);
  auto record = Datatype::contiguous(2, Datatype::float64());
  auto t = Datatype::indexed_block(1, displs, record);
  ASSERT_GT(t->lb(), 0);
  for (auto kind : {StrategyKind::kSpecialized, StrategyKind::kRwCp,
                    StrategyKind::kIovec}) {
    ReceiveConfig cfg;
    cfg.type = t;
    cfg.count = 3;
    cfg.strategy = kind;
    EXPECT_TRUE(run_receive(cfg).result.verified) << strategy_name(kind);
  }
}

TEST(Runner, NoCallbackHeapAllocationsOnAnyStrategy) {
  // Every callback the models schedule must fit InlineCallback's inline
  // storage; the engine counts the heap fallbacks and the runner
  // publishes the counter, so a capture outgrowing the buffer fails
  // here instead of silently reintroducing a malloc per event.
  for (auto kind :
       {StrategyKind::kSpecialized, StrategyKind::kRwCp, StrategyKind::kRoCp,
        StrategyKind::kHpuLocal, StrategyKind::kIovec,
        StrategyKind::kHostUnpack}) {
    auto cfg = vec_cfg(512, 256, kind);
    const auto run = run_receive(cfg);
    EXPECT_TRUE(run.metrics.has_counter("sim.engine.callback_heap_allocs"))
        << strategy_name(kind);
    EXPECT_EQ(run.metrics.counter("sim.engine.callback_heap_allocs"), 0u)
        << strategy_name(kind);
  }
}

TEST(Runner, EngineEventsScaleWithPacketsNotDmaWrites) {
  // A non-signalled DMA write costs the engine no event (the DMA engine
  // merges write runs itself); the pipeline costs a handful of events
  // per packet. 16 B blocks give 128 writes per packet, so even one
  // event per write would blow this budget.
  for (auto kind : {StrategyKind::kSpecialized, StrategyKind::kRwCp}) {
    auto cfg = vec_cfg(4096, 16, kind);
    const auto run = run_receive(cfg);
    ASSERT_TRUE(run.result.verified) << strategy_name(kind);
    std::uint64_t callbacks = 0;
    for (const auto& [name, value] : run.metrics.counters) {
      if (name.rfind("sim.engine.callbacks_", 0) == 0) callbacks += value;
    }
    const std::uint64_t writes = run.metrics.counter("nic.dma.writes");
    ASSERT_GT(writes, 8 * run.result.packets) << strategy_name(kind);
    EXPECT_LE(callbacks, 8 * run.result.packets)
        << strategy_name(kind) << ": " << writes << " DMA writes, "
        << run.result.packets << " packets";
  }
}

TEST(Runner, GammaMatchesRegionsPerPacket) {
  auto cfg = vec_cfg(2048, 128, StrategyKind::kSpecialized);  // 256 KiB
  const auto r = run_receive(cfg).result;
  // 2048 regions over 128 packets.
  EXPECT_NEAR(r.gamma, 16.0, 0.2);
}

TEST(Runner, SingleHpuStillCorrect) {
  auto cfg = vec_cfg(4096, 64, StrategyKind::kRwCp);
  cfg.hpus = 1;
  const auto r = run_receive(cfg).result;
  EXPECT_TRUE(r.verified);
}

TEST(Runner, MoreHpusNeverSlower) {
  auto base = vec_cfg(16384, 128, StrategyKind::kRwCp);
  base.verify = false;
  auto cfg1 = base;
  cfg1.hpus = 2;
  auto cfg2 = base;
  cfg2.hpus = 16;
  EXPECT_GE(run_receive(cfg1).result.msg_time,
            run_receive(cfg2).result.msg_time);
}

TEST(Runner, DeterministicAcrossRuns) {
  auto cfg = vec_cfg(4096, 128, StrategyKind::kRwCp);
  cfg.ooo_window = 4;
  const auto a = run_receive(cfg).result;
  const auto b = run_receive(cfg).result;
  EXPECT_EQ(a.msg_time, b.msg_time);
  EXPECT_EQ(a.dma_writes, b.dma_writes);
  EXPECT_EQ(a.e2e_time, b.e2e_time);
}

TEST(Runner, PacketBufferPeakGrowsWhenHandlersLag) {
  // Slow handlers (HPU-local, tiny blocks) back packets up in the NIC.
  auto slow = vec_cfg(32768, 16, StrategyKind::kHpuLocal);
  slow.verify = false;
  auto fast = vec_cfg(256, 2048, StrategyKind::kSpecialized);
  fast.verify = false;
  const auto s = run_receive(slow).result;
  const auto f = run_receive(fast).result;
  EXPECT_GT(s.pkt_buffer_peak, f.pkt_buffer_peak);
}

TEST(Runner, E2eIncludesNetworkLatencyMsgTimeDoesNot) {
  auto cfg = vec_cfg(256, 2048, StrategyKind::kSpecialized);
  const auto r = run_receive(cfg).result;
  EXPECT_GT(r.e2e_time, r.msg_time);
}

TEST(Runner, HostSetupReportedForCheckpointedOnly) {
  EXPECT_GT(run_receive(vec_cfg(4096, 128, StrategyKind::kRwCp))
                .result.host_setup_time,
            0);
  EXPECT_EQ(run_receive(vec_cfg(4096, 128, StrategyKind::kSpecialized))
                .result.host_setup_time,
            0);
}

// Which bytes of a `size`-byte buffer belong to the regions of `count`
// instances of `type` whose offset 0 sits at buffer byte `shift`.
std::vector<bool> region_mask(const ddt::TypePtr& type, std::uint64_t count,
                              std::int64_t shift, std::size_t size) {
  std::vector<bool> mask(size, false);
  for (const auto& r : type->flatten(count)) {
    const auto at = static_cast<std::size_t>(shift + r.offset);
    std::fill_n(mask.begin() + static_cast<std::ptrdiff_t>(at), r.size, true);
  }
  return mask;
}

TEST(RegionsHoldStream, CatchesAnyFlippedRegionByteIgnoresGaps) {
  struct Case {
    const char* name;
    ddt::TypePtr type;
    std::uint64_t count;
  };
  const std::vector<Case> cases = {
      {"hvector x3", Datatype::hvector(8, 12, 40, Datatype::int8()), 3},
      {"resized lb<0 x2",
       Datatype::resized(Datatype::hvector(4, 16, 32, Datatype::int8()), -64,
                         256),
       2},
  };
  ASSERT_LT(cases[1].type->lb(), 0);
  for (const auto& c : cases) {
    // The runner's buffer geometry: shift lifts a negative lb into it.
    const std::int64_t shift =
        -std::min({std::int64_t{0}, c.type->lb(), c.type->true_lb()});
    const std::int64_t hi =
        std::max({std::int64_t{0}, c.type->ub(), c.type->true_ub()});
    std::vector<std::byte> buffer(
        static_cast<std::size_t>(
            shift + c.type->extent() * static_cast<std::int64_t>(c.count - 1) +
            hi),
        std::byte{0xA5});  // gap bytes, never zero
    const std::uint64_t bytes = c.type->size() * c.count;
    const auto stream = packed_message_pattern(bytes, 3);
    ddt::unpack(stream.data(), *c.type, c.count, buffer.data() + shift);
    const auto in_region = region_mask(c.type, c.count, shift, buffer.size());
    for (auto engine :
         {dataloop::PackEngine::kInterpreter, dataloop::PackEngine::kProgram}) {
      if (engine == dataloop::PackEngine::kProgram) {
        ASSERT_NE(dataloop::plan_cached(c.type, c.count).program, nullptr)
            << c.name;
      }
      const char* ename =
          engine == dataloop::PackEngine::kProgram ? "program" : "interpreter";
      const auto holds = [&] {
        // A 7-byte window splits blocks and instances mid-run.
        return regions_hold_stream(buffer.data() + shift, c.type, c.count,
                                   stream, engine, 7);
      };
      ASSERT_TRUE(holds()) << c.name << " " << ename;
      std::uint64_t region_bytes = 0;
      std::uint64_t gap_bytes = 0;
      for (std::size_t i = 0; i < buffer.size(); ++i) {
        buffer[i] ^= std::byte{0x01};
        if (in_region[i]) {
          EXPECT_FALSE(holds()) << c.name << " " << ename << " byte " << i;
          ++region_bytes;
        } else {
          EXPECT_TRUE(holds()) << c.name << " " << ename << " gap " << i;
          ++gap_bytes;
        }
        buffer[i] ^= std::byte{0x01};
      }
      EXPECT_EQ(region_bytes, bytes) << c.name;
      EXPECT_GT(gap_bytes, 0u) << c.name;
    }
  }
}

TEST(RegionsHoldStream, EmptyStreamHolds) {
  auto t = Datatype::hvector(0, 4, 8, Datatype::int8());
  EXPECT_TRUE(regions_hold_stream(nullptr, t, 1, {},
                                  dataloop::PackEngine::kProgram, 7));
}

TEST(Runner, SparseReceiveLeavesUntouchedPagesZero) {
  // 1 KiB blocks every 64 KiB: the receive buffer spans 1 MiB for a
  // 16 KiB message, so most of its pages are never written. The host
  // memory must still read as zeros everywhere outside the regions,
  // through the real DMA path.
  auto t = Datatype::hvector(16, 1024, 64 << 10, Datatype::int8());
  for (auto kind : {StrategyKind::kSpecialized, StrategyKind::kRwCp,
                    StrategyKind::kHostUnpack}) {
    ReceiveConfig cfg;
    cfg.type = t;
    cfg.strategy = kind;
    cfg.keep_buffer = true;
    const auto run = run_receive(cfg);
    EXPECT_TRUE(run.result.verified) << strategy_name(kind);
    ASSERT_GE(run.buffer.size(), static_cast<std::size_t>(t->extent()))
        << strategy_name(kind);
    const auto in_region =
        region_mask(t, 1, run.buffer_shift, run.buffer.size());
    std::size_t nonzero_gaps = 0;
    for (std::size_t i = 0; i < run.buffer.size(); ++i) {
      if (!in_region[i] && run.buffer[i] != std::byte{0}) ++nonzero_gaps;
    }
    EXPECT_EQ(nonzero_gaps, 0u) << strategy_name(kind);
    if (kind != StrategyKind::kHostUnpack) {
      // Offloaded: the regions hold the message (the host baseline's
      // CPU unpack is modelled, not performed).
      EXPECT_EQ(ddt::pack_to_vector(run.buffer.data() + run.buffer_shift, *t),
                packed_message_pattern(t->size(), cfg.seed))
          << strategy_name(kind);
    }
  }
}

TEST(LeafWindow, WholeStreamMatchesFlatten) {
  auto t = Datatype::hvector(64, 48, 100, Datatype::int8());
  dataloop::CompiledDataloop loops(t, 3);
  std::vector<ddt::Region> got;
  leaf_window(loops, 0, loops.total_bytes(),
              [&](std::int64_t off, std::uint64_t sz, std::uint32_t) {
                got.push_back({off, sz});
              });
  ddt::merge_adjacent(got);
  EXPECT_EQ(got, t->flatten(3));
}

TEST(LeafWindow, MidBlockWindow) {
  auto t = Datatype::hvector(16, 100, 200, Datatype::int8());
  dataloop::CompiledDataloop loops(t);
  // Window [150, 270): tail of block 1 (50 B) + head of block 2 (70 B).
  std::vector<ddt::Region> got;
  leaf_window(loops, 150, 270,
              [&](std::int64_t off, std::uint64_t sz, std::uint32_t) {
                got.push_back({off, sz});
              });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (ddt::Region{250, 50}));   // block 1 at 200, +50
  EXPECT_EQ(got[1], (ddt::Region{400, 70}));   // block 2 at 400
}

TEST(LeafWindow, IndexedChargesSearchOnJumpOnly) {
  const std::vector<std::int64_t> blocklens{10, 20, 30, 40};
  const std::vector<std::int64_t> displs{0, 20, 60, 120};
  auto t = Datatype::indexed(blocklens, displs, Datatype::int32());
  dataloop::CompiledDataloop loops(t);
  std::vector<std::uint32_t> steps;
  leaf_window(loops, 48, loops.total_bytes(),
              [&](std::int64_t, std::uint64_t, std::uint32_t s) {
                steps.push_back(s);
              });
  ASSERT_GE(steps.size(), 3u);
  EXPECT_GT(steps[0], 0u) << "first lookup binary-searches";
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i], 0u) << "sequential continuation is free";
  }
}

TEST(LeafWindow, InstanceBoundary) {
  auto t = Datatype::resized(
      Datatype::hvector(4, 16, 32, Datatype::int8()), 0, 256);
  dataloop::CompiledDataloop loops(t, 2);
  // A window straddling the instance boundary (one instance = 64 B).
  std::vector<ddt::Region> got;
  leaf_window(loops, 48, 80,
              [&](std::int64_t off, std::uint64_t sz, std::uint32_t) {
                got.push_back({off, sz});
              });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (ddt::Region{96, 16}));        // last block, inst 0
  EXPECT_EQ(got[1], (ddt::Region{256, 16}));       // first block, inst 1
}

}  // namespace
}  // namespace netddt::offload
