// Tests for the compiled flat pack/unpack programs: lowering must fuse
// and classify correctly, and the executor must be byte-equivalent to
// both the Segment interpreter and the one-shot host reference for any
// window split — including windows executed out of order, resumption
// inside blocks, multi-instance counts and negative-lb layouts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "dataloop/cache.hpp"
#include "dataloop/packer.hpp"
#include "dataloop/program.hpp"
#include "dataloop/segment.hpp"
#include "ddt/pack.hpp"
#include "sim/rng.hpp"

namespace netddt::dataloop {
namespace {

using ddt::Datatype;
using ddt::TypePtr;

std::vector<std::byte> patterned(std::size_t n, std::uint64_t seed = 1) {
  std::vector<std::byte> v(n);
  sim::Rng rng(seed);
  for (auto& b : v) b = static_cast<std::byte>(rng.next());
  return v;
}

// Pack the whole stream through the program in randomly-sized windows
// visited in shuffled order; compare against the host reference.
void check_windows(const TypePtr& t, std::uint64_t count,
                   std::uint64_t seed) {
  CompiledDataloop loops(t, count);
  auto prog = compile_program(loops);
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->total_bytes(), loops.total_bytes());

  const std::int64_t lo =
      std::min<std::int64_t>({0, t->lb(), t->true_lb()});
  const std::int64_t hi = std::max<std::int64_t>({0, t->ub(), t->true_ub()});
  const std::size_t shift = static_cast<std::size_t>(-lo);
  const std::size_t buf_bytes =
      shift + static_cast<std::size_t>(t->extent()) * (count - 1) +
      static_cast<std::size_t>(hi) + 64;

  const auto src = patterned(buf_bytes, seed);
  std::vector<std::byte> want(loops.total_bytes());
  if (!want.empty()) ddt::pack(src.data() + shift, *t, count, want.data());

  // Random window boundaries over [0, total).
  sim::Rng rng(seed * 977 + 5);
  std::vector<std::uint64_t> cuts{0, loops.total_bytes()};
  for (int i = 0; i < 9; ++i) {
    cuts.push_back(rng.below(loops.total_bytes() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    windows.emplace_back(cuts[i], cuts[i + 1]);
  }
  for (std::size_t i = windows.size(); i > 1; --i) {
    std::swap(windows[i - 1], windows[rng.below(i)]);
  }

  // Pack: windows in shuffled order must still assemble the stream.
  std::vector<std::byte> got(loops.total_bytes(), std::byte{0xee});
  for (auto [f, l] : windows) {
    prog->pack(src.data() + shift, f, l, got.data() + f);
  }
  EXPECT_EQ(got, want);

  // Unpack: scatter the reference stream into a fresh buffer, again in
  // shuffled window order, and compare against the interpreter's result.
  std::vector<std::byte> mine(buf_bytes, std::byte{0xaa});
  std::vector<std::byte> theirs(buf_bytes, std::byte{0xaa});
  for (auto [f, l] : windows) {
    prog->unpack(want.data() + f, f, l, mine.data() + shift);
  }
  if (!want.empty()) {
    ddt::unpack(want.data(), *t, count, theirs.data() + shift);
  }
  EXPECT_EQ(mine, theirs);

  // for_each_region must emit exactly the stream's bytes in order.
  std::uint64_t covered = 0;
  prog->for_each_region(0, loops.total_bytes(),
                        [&](std::int64_t, std::uint64_t sz) { covered += sz; });
  EXPECT_EQ(covered, loops.total_bytes());
}

TEST(ProgramCompile, ContiguousFusesToSingleCopy) {
  auto t = Datatype::contiguous(64, Datatype::int32());
  CompiledDataloop loops(t);
  auto prog = compile_program(loops);
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->ops().size(), 1u);
  EXPECT_EQ(prog->ops()[0].kind, CopyOpKind::kCopy);
  EXPECT_EQ(prog->ops()[0].bytes, 256u);
  EXPECT_DOUBLE_EQ(prog->stats().bytes_per_op(), 256.0);
}

TEST(ProgramCompile, VectorBecomesOneStrideOp) {
  auto t = Datatype::vector(100, 2, 8, Datatype::float64());
  CompiledDataloop loops(t);
  auto prog = compile_program(loops);
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->ops().size(), 1u);
  const CopyOp& op = prog->ops()[0];
  EXPECT_EQ(op.kind, CopyOpKind::kStride);
  EXPECT_EQ(op.count, 100u);
  EXPECT_EQ(op.block_bytes, 16u);
  EXPECT_EQ(op.stride, 64);
  EXPECT_EQ(prog->stats().leaf_runs, 100u);
  EXPECT_GT(prog->stats().fused_run_ratio(), 0.9);
}

TEST(ProgramCompile, IrregularIndexedBecomesGather) {
  // Irregular block lengths: no constant-stride train, so the runs land
  // in one gather op with a table entry per run.
  const std::int64_t bl[] = {1, 3, 2, 5, 1, 4, 2, 7};
  const std::int64_t ds[] = {0, 5, 11, 20, 30, 33, 40, 45};
  auto t = Datatype::indexed(bl, ds, Datatype::int32());
  CompiledDataloop loops(t);
  auto prog = compile_program(loops);
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->ops().size(), 1u);
  EXPECT_EQ(prog->ops()[0].kind, CopyOpKind::kGather);
  EXPECT_EQ(prog->table().size(), 8u);
}

TEST(ProgramCompile, LimitsRejectOversizePrograms) {
  const std::int64_t bl[] = {1, 3, 2, 5, 1, 4, 2, 7};
  const std::int64_t ds[] = {0, 5, 11, 20, 30, 33, 40, 45};
  auto t = Datatype::indexed(bl, ds, Datatype::int32());
  CompiledDataloop loops(t);
  ProgramLimits limits;
  limits.max_table_entries = 4;
  EXPECT_EQ(compile_program(loops, limits), nullptr);
}

TEST(ProgramCompile, ZeroSizeTypeCompilesEmpty) {
  auto t = Datatype::contiguous(0, Datatype::int32());
  CompiledDataloop loops(t);
  auto prog = compile_program(loops);
  ASSERT_NE(prog, nullptr);
  EXPECT_TRUE(prog->ops().empty());
  EXPECT_EQ(prog->total_bytes(), 0u);
  prog->pack(nullptr, 0, 0, nullptr);  // must be a no-op, not a crash
}

TEST(ProgramExec, VectorWindows) {
  check_windows(Datatype::vector(37, 3, 7, Datatype::int32()), 1, 11);
  check_windows(Datatype::vector(37, 3, 7, Datatype::int32()), 4, 12);
}

TEST(ProgramExec, HvectorWindows) {
  check_windows(Datatype::hvector(5, 1, 512,
                                  Datatype::vector(3, 2, 4,
                                                   Datatype::float64())),
                2, 13);
}

TEST(ProgramExec, IndexedWindows) {
  const std::int64_t bl[] = {2, 1, 4, 3, 1, 2};
  const std::int64_t ds[] = {0, 7, 9, 21, 30, 34};
  check_windows(Datatype::indexed(bl, ds, Datatype::int32()), 3, 14);
}

TEST(ProgramExec, StructWindows) {
  const std::int64_t bl[] = {1, 3, 2};
  const std::int64_t ds[] = {0, 16, 48};
  const TypePtr tys[] = {Datatype::int64(), Datatype::int32(),
                         Datatype::float64()};
  check_windows(Datatype::struct_type(bl, ds, tys), 2, 15);
}

TEST(ProgramExec, NegativeLbResizedWindows) {
  auto base = Datatype::vector(4, 2, 5, Datatype::int32());
  check_windows(Datatype::resized(base, -32, 256), 3, 16);
}

TEST(ProgramExec, SubarrayWindows) {
  const std::int64_t sizes[] = {8, 10};
  const std::int64_t subsizes[] = {3, 4};
  const std::int64_t starts[] = {2, 5};
  check_windows(Datatype::subarray(sizes, subsizes, starts,
                                   Datatype::float64()),
                2, 17);
}

TEST(ProgramExec, ByteSplitInsideStrideBlock) {
  // Split windows at every byte position: exercises head/tail partial
  // blocks of the kStride executor.
  auto t = Datatype::vector(6, 4, 9, Datatype::int8());
  CompiledDataloop loops(t, 2);
  auto prog = compile_program(loops);
  ASSERT_NE(prog, nullptr);
  const auto src =
      patterned(static_cast<std::size_t>(t->extent()) * 2 + 64, 3);
  std::vector<std::byte> want(loops.total_bytes());
  ddt::pack(src.data(), *t, 2, want.data());
  for (std::uint64_t cut = 0; cut <= loops.total_bytes(); ++cut) {
    std::vector<std::byte> got(loops.total_bytes(), std::byte{0});
    prog->pack(src.data(), 0, cut, got.data());
    prog->pack(src.data(), cut, loops.total_bytes(), got.data() + cut);
    ASSERT_EQ(got, want) << "cut at " << cut;
  }
}

TEST(ProgramExec, PackerUnpackerProgramEngineMatchesInterpreter) {
  auto t = Datatype::hvector(5, 1, 512,
                             Datatype::vector(3, 2, 4, Datatype::float64()));
  CompiledDataloop loops(t, 2);
  auto prog = compile_program(loops);
  ASSERT_NE(prog, nullptr);
  const auto src =
      patterned(static_cast<std::size_t>(t->extent()) * 2 + 64, 7);

  Packer interp(loops, src);
  Packer programmed(loops, src, prog);
  std::vector<std::byte> a(loops.total_bytes()), b(loops.total_bytes());
  std::uint64_t pa = 0, pb = 0;
  while (!interp.done()) {
    pa += interp.pack(std::span<std::byte>(a).subspan(
        pa, std::min<std::uint64_t>(13, a.size() - pa)));
    pb += programmed.pack(std::span<std::byte>(b).subspan(
        pb, std::min<std::uint64_t>(13, b.size() - pb)));
  }
  EXPECT_TRUE(programmed.done());
  EXPECT_EQ(a, b);

  std::vector<std::byte> da(src.size(), std::byte{0x5c});
  std::vector<std::byte> db(src.size(), std::byte{0x5c});
  Unpacker ui(loops, da);
  Unpacker up(loops, db, prog);
  std::uint64_t pos = 0;
  while (!ui.done()) {
    const std::uint64_t n =
        std::min<std::uint64_t>(17, loops.total_bytes() - pos);
    ui.unpack(std::span<const std::byte>(a).subspan(pos, n));
    up.unpack(std::span<const std::byte>(a).subspan(pos, n));
    pos += n;
  }
  EXPECT_TRUE(up.done());
  EXPECT_EQ(da, db);
}

TEST(ProgramExec, RegionsMatchSegment) {
  const std::int64_t bl[] = {2, 1, 4, 3};
  const std::int64_t ds[] = {0, 7, 9, 21};
  auto t = Datatype::indexed(bl, ds, Datatype::int32());
  CompiledDataloop loops(t, 3);
  auto prog = compile_program(loops);
  ASSERT_NE(prog, nullptr);

  // The program's regions are fusions of the segment's: same coverage,
  // same order, never interleaved differently. Compare byte-for-byte by
  // expanding both to (offset, byte) pairs.
  auto expand = [](auto&& emit_regions) {
    std::vector<std::int64_t> bytes;
    emit_regions([&](std::int64_t off, std::uint64_t sz) {
      for (std::uint64_t i = 0; i < sz; ++i) {
        bytes.push_back(off + static_cast<std::int64_t>(i));
      }
    });
    return bytes;
  };
  const auto from_prog = expand([&](const auto& fn) {
    prog->for_each_region(5, loops.total_bytes() - 3, fn);
  });
  const auto from_seg = expand([&](const auto& fn) {
    Segment seg(loops);
    seg.process(5, loops.total_bytes() - 3, fn);
  });
  EXPECT_EQ(from_prog, from_seg);
}

TEST(PackEngineNames, RoundTrip) {
  EXPECT_EQ(pack_engine_name(PackEngine::kInterpreter), "interpreter");
  EXPECT_EQ(pack_engine_name(PackEngine::kProgram), "program");
  EXPECT_EQ(parse_pack_engine("program"), PackEngine::kProgram);
  EXPECT_EQ(parse_pack_engine("interpreter"), PackEngine::kInterpreter);
  EXPECT_EQ(parse_pack_engine("nope"), std::nullopt);
}

TEST(PlanCache, ProgramMemoizedAlongsideDataloop) {
  dataloop_cache_clear();
  auto t = Datatype::vector(16, 2, 4, Datatype::int32());
  auto p1 = plan_cached(t, 2);
  ASSERT_NE(p1.loops, nullptr);
  ASSERT_NE(p1.program, nullptr);
  auto p2 = plan_cached(t, 2);
  EXPECT_EQ(p1.loops.get(), p2.loops.get());
  EXPECT_EQ(p1.program.get(), p2.program.get());
  // compile_cached on the same key shares the same dataloop entry.
  auto l = compile_cached(t, 2);
  EXPECT_EQ(l.get(), p1.loops.get());
  dataloop_cache_clear();
}

TEST(PlanCache, LruEvictionIsBoundedAndCounted) {
  dataloop_cache_clear();
  dataloop_cache_set_capacity(4);
  for (std::int64_t n = 1; n <= 10; ++n) {
    compile_cached(Datatype::contiguous(n, Datatype::int32()));
  }
  auto stats = dataloop_cache_stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.entries_evicted, 6u);
  EXPECT_EQ(stats.capacity, 4u);

  // Most-recently-used survives: n=10..7 are resident, n=6 is not.
  EXPECT_EQ(dataloop_cache_stats().hits, 0u);
  compile_cached(Datatype::contiguous(10, Datatype::int32()));
  EXPECT_EQ(dataloop_cache_stats().hits, 1u);
  compile_cached(Datatype::contiguous(6, Datatype::int32()));
  EXPECT_EQ(dataloop_cache_stats().hits, 1u);  // was evicted: a miss
  dataloop_cache_clear();
}

TEST(PlanCache, TouchKeepsHotEntriesResident) {
  dataloop_cache_clear();
  dataloop_cache_set_capacity(2);
  auto hot = Datatype::contiguous(1, Datatype::int32());
  compile_cached(hot);
  for (std::int64_t n = 2; n <= 6; ++n) {
    compile_cached(hot);  // touch
    compile_cached(Datatype::contiguous(n, Datatype::int32()));
  }
  const auto before = dataloop_cache_stats().hits;
  compile_cached(hot);
  EXPECT_EQ(dataloop_cache_stats().hits, before + 1)
      << "hot entry must never age out while touched every insert";
  dataloop_cache_clear();
}

TEST(ProgramRandomized, ManyShapesAgainstReference) {
  sim::Rng rng(2026);
  for (int i = 0; i < 40; ++i) {
    const std::int64_t count = 1 + static_cast<std::int64_t>(rng.below(30));
    const std::int64_t blocklen = 1 + static_cast<std::int64_t>(rng.below(6));
    const std::int64_t stride =
        blocklen + static_cast<std::int64_t>(rng.below(8));
    auto t = Datatype::vector(count, blocklen, stride, Datatype::int32());
    if (rng.chance(0.4)) t = Datatype::contiguous(2, t);
    if (rng.chance(0.3)) t = Datatype::hvector(3, 1, t->extent() + 24, t);
    check_windows(t, 1 + rng.below(3), 100 + static_cast<std::uint64_t>(i));
  }
}

}  // namespace
}  // namespace netddt::dataloop
