// Tests for the derived-datatype engine: sizes/extents, type-map
// flattening, pack/unpack round trips, and the subarray desugaring.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "ddt/datatype.hpp"
#include "ddt/pack.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace netddt::ddt {
namespace {

using Type = Datatype;

std::vector<std::byte> iota_buffer(std::size_t n) {
  std::vector<std::byte> buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  }
  return buf;
}

/// Round-trip check: pack from a patterned buffer, unpack into a fresh
/// buffer, and verify every covered byte matches while gaps stay zero.
void check_roundtrip(const TypePtr& t, std::uint64_t count = 1) {
  const auto regions = t->flatten(count);
  std::int64_t min_off = 0, max_off = 0;
  for (const Region& r : regions) {
    min_off = std::min(min_off, r.offset);
    max_off = std::max(max_off, r.offset + static_cast<std::int64_t>(r.size));
  }
  ASSERT_GE(min_off, 0) << "tests use non-negative layouts";
  const auto buf_size = static_cast<std::size_t>(max_off) + 16;

  const auto src = iota_buffer(buf_size);
  std::vector<std::byte> packed(t->size() * count, std::byte{0xEE});
  pack(src.data(), *t, count, packed.data());

  std::vector<std::byte> dst(buf_size, std::byte{0});
  unpack(packed.data(), *t, count, dst.data());

  // Every region byte must match the source; everything else must be 0.
  std::vector<bool> covered(buf_size, false);
  for (const Region& r : regions) {
    for (std::uint64_t b = 0; b < r.size; ++b) {
      const auto at = static_cast<std::size_t>(r.offset) + b;
      EXPECT_EQ(dst[at], src[at]) << "offset " << at;
      EXPECT_FALSE(covered[at]) << "region overlap at " << at;
      covered[at] = true;
    }
  }
  for (std::size_t i = 0; i < buf_size; ++i) {
    if (!covered[i]) EXPECT_EQ(dst[i], std::byte{0}) << "gap dirtied at " << i;
  }
  EXPECT_EQ(total_bytes(regions), t->size() * count);
}

TEST(Elementary, PredefinedSizes) {
  EXPECT_EQ(Type::int8()->size(), 1u);
  EXPECT_EQ(Type::int32()->size(), 4u);
  EXPECT_EQ(Type::float64()->size(), 8u);
  EXPECT_EQ(Type::float64()->extent(), 8);
  EXPECT_TRUE(Type::float64()->is_dense());
  EXPECT_EQ(Type::float64()->block_count(), 1u);
}

TEST(Contiguous, SizeExtentDense) {
  auto t = Type::contiguous(10, Type::int32());
  EXPECT_EQ(t->size(), 40u);
  EXPECT_EQ(t->extent(), 40);
  EXPECT_TRUE(t->is_dense());
  EXPECT_EQ(t->flatten().size(), 1u);
  EXPECT_EQ(t->flatten()[0], (Region{0, 40}));
}

TEST(Contiguous, ZeroCountIsEmpty) {
  auto t = Type::contiguous(0, Type::int32());
  EXPECT_EQ(t->size(), 0u);
  EXPECT_EQ(t->extent(), 0);
  EXPECT_TRUE(t->flatten().empty());
}

TEST(Vector, MatrixColumn) {
  // A column of an 8x8 int32 matrix: count=8, blocklen=1, stride=8.
  auto t = Type::vector(8, 1, 8, Type::int32());
  EXPECT_EQ(t->size(), 32u);
  EXPECT_EQ(t->extent(), 7 * 32 + 4);
  EXPECT_FALSE(t->is_dense());
  const auto regions = t->flatten();
  ASSERT_EQ(regions.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(regions[i], (Region{static_cast<std::int64_t>(i) * 32, 4}));
  }
  check_roundtrip(t);
}

TEST(Vector, DenseStrideCollapsesToOneRegion) {
  // stride == blocklen: the "vector" is actually contiguous.
  auto t = Type::vector(4, 3, 3, Type::float64());
  EXPECT_TRUE(t->is_dense());
  EXPECT_EQ(t->flatten().size(), 1u);
  EXPECT_EQ(t->flatten()[0].size, 96u);
}

TEST(Vector, AdjacentBlocksMergeInFlatten) {
  // Blocks of 2 with stride 2: gap-free even though described as strided.
  auto t = Type::vector(5, 2, 2, Type::int32());
  EXPECT_EQ(t->flatten().size(), 1u);
}

TEST(Vector, NegativeStrideBounds) {
  auto t = Type::hvector(3, 1, -16, Type::int32());
  EXPECT_EQ(t->lb(), -32);
  EXPECT_EQ(t->ub(), 4);
  EXPECT_EQ(t->size(), 12u);
}

TEST(Vector, PaperExampleNByNColumn) {
  // MPI_Type_vector(N, 1, N, MPI_INT) from the paper's Sec 2.2.1.
  constexpr std::int64_t n = 16;
  auto t = Type::vector(n, 1, n, Type::int32());
  const auto regions = t->flatten();
  ASSERT_EQ(regions.size(), static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(regions[static_cast<std::size_t>(i)].offset, i * n * 4);
  }
  check_roundtrip(t);
}

TEST(Hvector, ByteStrideIndependentOfExtent) {
  auto t = Type::hvector(4, 2, 100, Type::int32());
  const auto regions = t->flatten();
  ASSERT_EQ(regions.size(), 4u);
  EXPECT_EQ(regions[1].offset, 100);
  EXPECT_EQ(regions[1].size, 8u);
  check_roundtrip(t);
}

TEST(IndexedBlock, ArbitraryOffsets) {
  const std::vector<std::int64_t> displs{7, 0, 3};
  auto t = Type::indexed_block(1, displs, Type::float64());
  EXPECT_EQ(t->size(), 24u);
  EXPECT_EQ(t->lb(), 0);
  EXPECT_EQ(t->ub(), 64);
  // Flatten preserves type-map order (7, 0, 3), not address order.
  const auto regions = t->flatten();
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(regions[0].offset, 56);
  EXPECT_EQ(regions[1].offset, 0);
  EXPECT_EQ(regions[2].offset, 24);
  check_roundtrip(t);
}

TEST(Indexed, VariableBlockLengths) {
  const std::vector<std::int64_t> blocklens{3, 1, 2};
  const std::vector<std::int64_t> displs{0, 5, 8};
  auto t = Type::indexed(blocklens, displs, Type::int32());
  EXPECT_EQ(t->size(), 24u);
  const auto regions = t->flatten();
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(regions[0], (Region{0, 12}));
  EXPECT_EQ(regions[1], (Region{20, 4}));
  EXPECT_EQ(regions[2], (Region{32, 8}));
  check_roundtrip(t);
}

TEST(Struct, MixedMemberTypes) {
  // struct { double x; int32 tag; char pad[4]; double v[2]; }
  const std::vector<std::int64_t> blocklens{1, 1, 2};
  const std::vector<std::int64_t> displs{0, 8, 16};
  const std::vector<TypePtr> types{Type::float64(), Type::int32(),
                                   Type::float64()};
  auto t = Type::struct_type(blocklens, displs, types);
  EXPECT_EQ(t->size(), 28u);
  EXPECT_EQ(t->ub(), 32);
  const auto regions = t->flatten();
  // x and tag are adjacent and merge; the pad at [12,16) splits off v.
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0], (Region{0, 12}));
  EXPECT_EQ(regions[1], (Region{16, 16}));
  check_roundtrip(t);
}

TEST(Struct, NestedStructOfVectors) {
  auto col = Type::vector(4, 1, 4, Type::int32());
  const std::vector<std::int64_t> blocklens{1, 1};
  const std::vector<std::int64_t> displs{0, 128};
  const std::vector<TypePtr> types{col, col};
  auto t = Type::struct_type(blocklens, displs, types);
  EXPECT_EQ(t->size(), 32u);
  EXPECT_EQ(t->flatten().size(), 8u);
  check_roundtrip(t);
}

TEST(Resized, OverridesBounds) {
  auto base = Type::contiguous(3, Type::int32());
  auto t = Type::resized(base, 0, 64);
  EXPECT_EQ(t->size(), 12u);
  EXPECT_EQ(t->extent(), 64);
  EXPECT_EQ(t->true_extent(), 12);
  // Two instances land 64 bytes apart.
  const auto regions = t->flatten(2);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[1].offset, 64);
  check_roundtrip(t, 3);
}

TEST(Resized, NegativeLb) {
  auto t = Type::resized(Type::int32(), -4, 12);
  EXPECT_EQ(t->lb(), -4);
  EXPECT_EQ(t->ub(), 8);
  EXPECT_EQ(t->true_lb(), 0);
}

TEST(Subarray, TwoDimensionalCOrder) {
  // Interior 2x3 block starting at (1,2) of a 4x8 int32 array.
  const std::vector<std::int64_t> sizes{4, 8};
  const std::vector<std::int64_t> subsizes{2, 3};
  const std::vector<std::int64_t> starts{1, 2};
  auto t = Type::subarray(sizes, subsizes, starts, Type::int32());
  EXPECT_EQ(t->size(), 24u);
  EXPECT_EQ(t->extent(), 4 * 8 * 4);  // full array extent
  const auto regions = t->flatten();
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0], (Region{(1 * 8 + 2) * 4, 12}));
  EXPECT_EQ(regions[1], (Region{(2 * 8 + 2) * 4, 12}));
  check_roundtrip(t);
}

TEST(Subarray, FortranOrderMatchesTransposedC) {
  // Fortran order: first dimension is contiguous.
  const std::vector<std::int64_t> sizes{8, 4};
  const std::vector<std::int64_t> subsizes{3, 2};
  const std::vector<std::int64_t> starts{2, 1};
  auto f = Type::subarray(sizes, subsizes, starts, Type::int32(), false);
  const std::vector<std::int64_t> csizes{4, 8};
  const std::vector<std::int64_t> csub{2, 3};
  const std::vector<std::int64_t> cstarts{1, 2};
  auto c = Type::subarray(csizes, csub, cstarts, Type::int32(), true);
  EXPECT_EQ(f->flatten(), c->flatten());
}

TEST(Subarray, ThreeDimensionalFace) {
  // A z-face of an 8x8x8 float64 grid (like NAS MG halo exchange).
  const std::vector<std::int64_t> sizes{8, 8, 8};
  const std::vector<std::int64_t> subsizes{8, 8, 1};
  const std::vector<std::int64_t> starts{0, 0, 7};
  auto t = Type::subarray(sizes, subsizes, starts, Type::float64());
  EXPECT_EQ(t->size(), 64u * 8);
  EXPECT_EQ(t->flatten().size(), 64u);  // 64 single-element regions
  check_roundtrip(t);
}

TEST(Nesting, VectorOfVectorMatchesManualOffsets) {
  // MILC-style vector(vector): outer strides over inner strided planes.
  auto inner = Type::vector(3, 2, 4, Type::float64());
  auto outer = Type::hvector(2, 1, 512, inner);
  EXPECT_EQ(outer->size(), 2u * inner->size());
  const auto regions = outer->flatten();
  ASSERT_EQ(regions.size(), 6u);
  EXPECT_EQ(regions[3].offset, 512);
  check_roundtrip(outer);
}

TEST(Nesting, IndexOfVectors) {
  // The paper's Fig 5 example: index of 2 vectors.
  auto vec = Type::vector(2, 1, 3, Type::float32());
  const std::vector<std::int64_t> blocklens{1, 1};
  const std::vector<std::int64_t> displs{0, 2};
  auto t = Type::indexed(blocklens, displs, vec);
  EXPECT_EQ(t->size(), 16u);
  check_roundtrip(t);
}

TEST(Flatten, CountRepeatsAtExtent) {
  // Pad the extent so consecutive instances do not abut and merge.
  auto t = Type::resized(Type::vector(2, 1, 4, Type::int32()), 0, 64);
  const auto one = t->flatten(1);
  const auto two = t->flatten(2);
  ASSERT_EQ(two.size(), 2 * one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(two[i + one.size()].offset, one[i].offset + t->extent());
  }
}

TEST(Flatten, AbuttingInstancesMergeAcrossCount) {
  // A vector's ub is the end of its last block, so back-to-back instances
  // coalesce their boundary regions: 2 instances of 2 blocks -> 3 regions.
  auto t = Type::vector(2, 1, 4, Type::int32());
  EXPECT_EQ(t->flatten(2).size(), 3u);
}

TEST(Pack, StreamOrderIsTypeMapOrder) {
  // Packing must follow type-map order even when offsets go backwards.
  const std::vector<std::int64_t> displs{2, 0};
  auto t = Type::indexed_block(1, displs, Type::int32());
  std::vector<std::byte> src(12);
  const std::uint32_t a = 0xAAAAAAAA, b = 0xBBBBBBBB;
  std::memcpy(src.data() + 8, &a, 4);
  std::memcpy(src.data() + 0, &b, 4);
  auto packed = pack_to_vector(src.data(), *t);
  std::uint32_t first = 0, second = 0;
  std::memcpy(&first, packed.data(), 4);
  std::memcpy(&second, packed.data() + 4, 4);
  EXPECT_EQ(first, a);
  EXPECT_EQ(second, b);
}

TEST(BlockCount, UpperBoundsMergedRegions) {
  sim::Rng rng(123);
  for (int iter = 0; iter < 30; ++iter) {
    const auto count = rng.range(1, 6);
    const auto blocklen = rng.range(1, 4);
    const auto stride = rng.range(blocklen, 8);
    auto t = Type::vector(count, blocklen, stride, Type::int32());
    EXPECT_GE(t->block_count(), t->flatten().size());
  }
}

// Property-style sweep: random nested types must round-trip.
class RandomTypeRoundtrip : public ::testing::TestWithParam<int> {};

TypePtr random_type(sim::Rng& rng, int depth) {
  if (depth == 0) {
    switch (rng.below(3)) {
      case 0: return Type::int32();
      case 1: return Type::float64();
      default: return Type::int8();
    }
  }
  auto base = random_type(rng, depth - 1);
  switch (rng.below(4)) {
    case 0:
      return Type::contiguous(rng.range(1, 4), base);
    case 1: {
      const auto bl = rng.range(1, 3);
      return Type::vector(rng.range(1, 4), bl, rng.range(bl, bl + 4), base);
    }
    case 2: {
      std::vector<std::int64_t> displs;
      std::int64_t at = 0;
      const auto n = rng.range(1, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        displs.push_back(at);
        at += rng.range(1, 5);
      }
      return Type::indexed_block(1, displs, base);
    }
    default: {
      std::vector<std::int64_t> blocklens, displs;
      std::int64_t at = 0;
      const auto n = rng.range(1, 3);
      for (std::int64_t i = 0; i < n; ++i) {
        const auto bl = rng.range(1, 3);
        blocklens.push_back(bl);
        displs.push_back(at);
        at += bl + rng.range(0, 3);
      }
      return Type::indexed(blocklens, displs, base);
    }
  }
}

TEST_P(RandomTypeRoundtrip, PackUnpackRestoresData) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto t = random_type(rng, 3);
  check_roundtrip(t, 1 + rng.below(3));
}

TEST(Constructors, BadCallerInputIsAViolation) {
  // Checked in every build type, not only where assert() survives.
  using sim::check::Violation;
  const TypePtr i32 = Type::int32();
  EXPECT_THROW(Type::contiguous(-1, i32), Violation);
  EXPECT_THROW(Type::contiguous(4, nullptr), Violation);
  EXPECT_THROW(Type::vector(2, 1, 3, nullptr), Violation);
  EXPECT_THROW(Type::hvector(2, -1, 8, i32), Violation);
  EXPECT_THROW(Type::hindexed_block(-2, std::vector<std::int64_t>{0}, i32),
               Violation);
  EXPECT_THROW(Type::indexed(std::vector<std::int64_t>{1, 2},
                             std::vector<std::int64_t>{0}, i32),
               Violation);
  const std::vector<std::int64_t> one{1}, zero{0};
  EXPECT_THROW(Type::struct_type(one, zero, std::vector<TypePtr>{}),
               Violation);
  EXPECT_THROW(Type::struct_type(one, zero, std::vector<TypePtr>{nullptr}),
               Violation);
  const std::vector<std::int64_t> sizes{4, 4}, sub{2, 3}, starts{0, 2};
  EXPECT_THROW(Type::subarray(sizes, sub, starts, i32), Violation);
  EXPECT_THROW(Type::subarray(sizes, sub, one, i32), Violation);
  EXPECT_THROW(Type::resized(i32, 0, -4), Violation);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTypeRoundtrip,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace netddt::ddt
