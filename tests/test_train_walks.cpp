// The walkers that hand constant-stride block trains to the DMA engine
// must describe exactly the regions their one-region-per-call forms
// emit: Segment::process with a train hook against the region-only
// walk (regions, order and ProcessStats), FlatProgram::for_each_train
// against for_each_region, and the closed-form vector_window against
// leaf_window. Every train is expanded into its blocks and compared
// region by region over ddt_gen types and random windows.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dataloop/dataloop.hpp"
#include "dataloop/program.hpp"
#include "dataloop/segment.hpp"
#include "ddt/datatype.hpp"
#include "fuzz/ddt_gen.hpp"
#include "offload/specialized.hpp"

namespace netddt {
namespace {

using dataloop::CompiledDataloop;
using dataloop::ProcessStats;
using dataloop::Segment;
using ddt::Datatype;
using ddt::TypePtr;

using Regions = std::vector<std::pair<std::int64_t, std::uint64_t>>;

// Collects regions; a train adds its blocks one by one.
struct Collector {
  Regions regions;
  std::uint64_t trains = 0;

  void region(std::int64_t off, std::uint64_t len) {
    regions.emplace_back(off, len);
  }
  void train(std::int64_t off, std::int64_t stride, std::uint64_t block,
             std::uint64_t count) {
    EXPECT_GT(count, 0u);
    ++trains;
    for (std::uint64_t i = 0; i < count; ++i) {
      regions.emplace_back(off + static_cast<std::int64_t>(i) * stride, block);
    }
  }
};

void expect_same_stats(const ProcessStats& a, const ProcessStats& b) {
  EXPECT_EQ(a.regions_emitted, b.regions_emitted);
  EXPECT_EQ(a.catchup_bytes, b.catchup_bytes);
  EXPECT_EQ(a.catchup_blocks, b.catchup_blocks);
  EXPECT_EQ(a.reset, b.reset);
}

// Packet-sized windows in stream order, the whole stream, then random
// (out-of-order, overlapping, 1-byte and empty) ones.
std::vector<std::pair<std::uint64_t, std::uint64_t>> windows(
    std::uint64_t total, std::uint64_t seed) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.emplace_back(0, total);
  for (std::uint64_t at = 0; at < total; at += 2048) {
    out.emplace_back(at, std::min(total, at + 2048));
  }
  std::mt19937_64 rng(seed);
  for (int i = 0; total > 0 && i < 16; ++i) {
    const std::uint64_t first = rng() % (total + 1);
    const std::uint64_t len =
        rng() % (std::min<std::uint64_t>(total - first, 4096) + 1);
    out.emplace_back(first, first + len);
    const std::uint64_t one = rng() % total;
    out.emplace_back(one, one + 1);
  }
  return out;
}

// Vector-leaf shapes the fuzz grammar reaches only by chance: packet-
// crossing blocks, many instances, a 1-byte block and a negative stride.
std::vector<std::pair<TypePtr, std::uint64_t>> vector_types() {
  return {
      {Datatype::hvector(4096, 16, 32, Datatype::int8()), 1},
      {Datatype::hvector(300, 128, 200, Datatype::int8()), 3},
      {Datatype::hvector(5, 3000, 4000, Datatype::int8()), 2},
      {Datatype::vector(7, 1, 3, Datatype::int8()), 40},
      {Datatype::vector(64, 2, -4, Datatype::int32()), 2},
      {Datatype::hvector(8, 1, 1024,
                         Datatype::vector(4, 2, 4, Datatype::float64())),
       2},
  };
}

// Segment::process with the train hook against the region-only walk,
// one pair of segments carried through every window in turn (so the
// catch-up and reset paths run between them).
std::uint64_t check_segment(const TypePtr& t, std::uint64_t count,
                            std::uint64_t seed) {
  const CompiledDataloop loops(t, count);
  if (loops.depth() > Segment::kMaxDepth) return 0;
  Segment plain(loops);
  Segment trained(loops);
  std::uint64_t trains = 0;
  for (const auto& [first, last] : windows(loops.total_bytes(), seed)) {
    Collector a;
    Collector b;
    const ProcessStats sa = plain.process(
        first, last,
        [&a](std::int64_t off, std::uint64_t len) { a.region(off, len); });
    const ProcessStats sb = trained.process(
        first, last,
        [&b](std::int64_t off, std::uint64_t len) { b.region(off, len); },
        [&b](std::int64_t off, std::int64_t stride, std::uint64_t block,
             std::uint64_t n) { b.train(off, stride, block, n); });
    EXPECT_EQ(a.regions, b.regions)
        << "window [" << first << ", " << last << ")";
    expect_same_stats(sa, sb);
    EXPECT_EQ(plain.position(), trained.position());
    trains += b.trains;
  }
  return trains;
}

std::uint64_t check_program(const TypePtr& t, std::uint64_t count,
                            std::uint64_t seed) {
  const CompiledDataloop loops(t, count);
  const auto program = dataloop::compile_program(loops);
  if (program == nullptr) return 0;
  std::uint64_t trains = 0;
  for (const auto& [first, last] : windows(program->total_bytes(), seed)) {
    Collector a;
    Collector b;
    program->for_each_region(
        first, last,
        [&a](std::int64_t off, std::uint64_t len) { a.region(off, len); });
    program->for_each_train(
        first, last,
        [&b](std::int64_t off, std::uint64_t len) { b.region(off, len); },
        [&b](std::int64_t off, std::int64_t stride, std::uint64_t block,
             std::uint64_t n) { b.train(off, stride, block, n); });
    EXPECT_EQ(a.regions, b.regions)
        << "window [" << first << ", " << last << ")";
    trains += b.trains;
  }
  return trains;
}

TEST(TrainWalks, SegmentTrainsExpandToTheRegionWalk) {
  std::uint64_t trains = 0;
  for (const auto& [t, count] : vector_types()) {
    SCOPED_TRACE(t->to_string());
    const std::uint64_t n = check_segment(t, count, count);
    EXPECT_GT(n, 0u);
    trains += n;
  }
  std::uint64_t types_with_trains = 0;
  for (std::uint64_t seed = 0; seed < 1500; ++seed) {
    const TypePtr t = fuzz::build(fuzz::generate(seed).spec);
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + ": " +
                 t->to_string());
    const std::uint64_t n = check_segment(t, 1 + seed % 3, seed);
    types_with_trains += n > 0;
    trains += n;
  }
  EXPECT_GT(types_with_trains, 100u);
  EXPECT_GT(trains, 1000u);
}

TEST(TrainWalks, ProgramTrainsExpandToForEachRegion) {
  std::uint64_t trains = 0;
  for (const auto& [t, count] : vector_types()) {
    SCOPED_TRACE(t->to_string());
    const std::uint64_t n = check_program(t, count, count);
    EXPECT_GT(n, 0u);
    trains += n;
  }
  std::uint64_t types_with_trains = 0;
  for (std::uint64_t seed = 0; seed < 1500; ++seed) {
    const TypePtr t = fuzz::build(fuzz::generate(seed).spec);
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + ": " +
                 t->to_string());
    const std::uint64_t n = check_program(t, 1 + seed % 3, seed);
    types_with_trains += n > 0;
    trains += n;
  }
  EXPECT_GT(types_with_trains, 100u);
  EXPECT_GT(trains, 1000u);
}

TEST(TrainWalks, VectorWindowTrainsExpandToLeafWindow) {
  std::uint64_t vectors = 0;
  auto check = [&vectors](const TypePtr& t, std::uint64_t count,
                          std::uint64_t seed) {
    const CompiledDataloop loops(t, count);
    const dataloop::Dataloop& leaf = loops.root();
    if (!leaf.leaf || leaf.kind != dataloop::LoopKind::kVector) return;
    ++vectors;
    for (const auto& [first, last] : windows(loops.total_bytes(), seed)) {
      Collector a;
      Collector b;
      offload::leaf_window(
          loops, first, last,
          [&a](std::int64_t off, std::uint64_t len, std::uint32_t steps) {
            EXPECT_EQ(steps, 0u);
            a.region(off, len);
          });
      offload::vector_window(
          leaf, loops.root_extent(), first, last,
          [&b](std::int64_t off, std::uint64_t len) { b.region(off, len); },
          [&b](std::int64_t off, std::int64_t stride, std::uint64_t block,
               std::uint64_t n) { b.train(off, stride, block, n); });
      EXPECT_EQ(a.regions, b.regions)
          << t->to_string() << " x" << count << " window [" << first
          << ", " << last << ")";
    }
  };
  for (const auto& [t, count] : vector_types()) check(t, count, count);
  for (std::uint64_t seed = 0; seed < 1500; ++seed) {
    check(fuzz::build(fuzz::generate(seed).spec), 1 + seed % 3, seed);
  }
  EXPECT_GT(vectors, 50u);
}

}  // namespace
}  // namespace netddt
