// Tests for datatype normalization: rewrites must preserve the type map
// exactly while simplifying the description.

#include <gtest/gtest.h>

#include <vector>

#include "ddt/datatype.hpp"
#include "ddt/normalize.hpp"
#include "sim/rng.hpp"

namespace netddt::ddt {
namespace {

using Type = Datatype;

void expect_equivalent(const TypePtr& a, const TypePtr& b) {
  EXPECT_EQ(a->size(), b->size());
  EXPECT_EQ(a->lb(), b->lb());
  EXPECT_EQ(a->ub(), b->ub());
  EXPECT_EQ(a->flatten(3), b->flatten(3));
}

TEST(Normalize, ContiguousOfContiguousCollapses) {
  auto t = Type::contiguous(4, Type::contiguous(8, Type::int32()));
  auto n = normalize(t);
  EXPECT_EQ(n->kind(), Kind::kContiguous);
  EXPECT_EQ(n->count(), 32);
  EXPECT_EQ(n->child()->kind(), Kind::kElementary);
  expect_equivalent(t, n);
}

TEST(Normalize, ZeroLengthStructBlockKeepsTheBounds) {
  // The struct ignores the zero-length block's displacement (lb = ub =
  // 0); the hindexed it normalizes into would bound it at 16.
  auto t = Type::struct_type(std::vector<std::int64_t>{0},
                             std::vector<std::int64_t>{16},
                             std::vector<TypePtr>{Type::int32()});
  auto n = normalize(t);
  EXPECT_EQ(n->size(), 0u);
  EXPECT_EQ(n->lb(), t->lb());
  EXPECT_EQ(n->ub(), t->ub());
  expect_equivalent(t, n);
}

TEST(Normalize, ContiguousOfOneUnwraps) {
  auto t = Type::contiguous(1, Type::float64());
  EXPECT_EQ(normalize(t)->kind(), Kind::kElementary);
}

TEST(Normalize, DenseVectorBecomesContiguous) {
  auto t = Type::vector(6, 2, 2, Type::int32());
  auto n = normalize(t);
  EXPECT_TRUE(n->is_dense());
  EXPECT_EQ(n->kind(), Kind::kContiguous);
  EXPECT_EQ(n->count(), 12);
  expect_equivalent(t, n);
}

TEST(Normalize, VectorOfContiguousFlattensBase) {
  // Paper Sec 3.2.3: nested types may normalize into specialized-handler
  // compatible ones — vector over contiguous(float64) is a plain vector.
  auto t = Type::vector(8, 2, 5, Type::contiguous(3, Type::float64()));
  auto n = normalize(t);
  EXPECT_EQ(n->kind(), Kind::kVector);
  EXPECT_EQ(n->blocklen(), 6);
  EXPECT_EQ(n->child()->kind(), Kind::kElementary);
  expect_equivalent(t, n);
}

TEST(Normalize, SingleCountVectorUnwraps) {
  auto t = Type::vector(1, 5, 100, Type::int32());
  auto n = normalize(t);
  EXPECT_EQ(n->kind(), Kind::kContiguous);
  expect_equivalent(t, n);
}

TEST(Normalize, IndexedWithEqualBlocksBecomesIndexedBlock) {
  const std::vector<std::int64_t> blocklens{2, 2, 2};
  const std::vector<std::int64_t> displs{0, 5, 11};
  auto t = Type::indexed(blocklens, displs, Type::int32());
  auto n = normalize(t);
  EXPECT_EQ(n->kind(), Kind::kIndexedBlock);
  expect_equivalent(t, n);
}

TEST(Normalize, UniformIndexedBlockBecomesVector) {
  const std::vector<std::int64_t> displs{0, 8, 16, 24};
  auto t = Type::indexed_block(2, displs, Type::int32());
  auto n = normalize(t);
  EXPECT_EQ(n->kind(), Kind::kVector);
  EXPECT_EQ(n->count(), 4);
  EXPECT_EQ(n->stride_bytes(), 32);
  expect_equivalent(t, n);
}

TEST(Normalize, NonUniformIndexedBlockStays) {
  const std::vector<std::int64_t> displs{0, 3, 9};
  auto t = Type::indexed_block(1, displs, Type::int32());
  auto n = normalize(t);
  EXPECT_EQ(n->kind(), Kind::kIndexedBlock);
  expect_equivalent(t, n);
}

TEST(Normalize, HomogeneousStructBecomesIndexed) {
  const std::vector<std::int64_t> blocklens{1, 3};
  const std::vector<std::int64_t> displs{0, 16};
  const std::vector<TypePtr> types{Type::float64(), Type::float64()};
  auto t = Type::struct_type(blocklens, displs, types);
  auto n = normalize(t);
  EXPECT_NE(n->kind(), Kind::kStruct);
  expect_equivalent(t, n);
}

TEST(Normalize, HeterogeneousStructStays) {
  const std::vector<std::int64_t> blocklens{1, 1};
  const std::vector<std::int64_t> displs{0, 8};
  const std::vector<TypePtr> types{Type::float64(), Type::int32()};
  auto t = Type::struct_type(blocklens, displs, types);
  auto n = normalize(t);
  EXPECT_EQ(n->kind(), Kind::kStruct);
  expect_equivalent(t, n);
}

TEST(Normalize, NoopResizedDropped) {
  auto base = Type::contiguous(4, Type::int32());
  auto t = Type::resized(base, base->lb(), base->extent());
  EXPECT_EQ(normalize(t)->kind(), Kind::kContiguous);
}

TEST(Normalize, MeaningfulResizedKept) {
  auto t = Type::resized(Type::int32(), 0, 16);
  auto n = normalize(t);
  EXPECT_EQ(n->kind(), Kind::kResized);
  expect_equivalent(t, n);
}

TEST(Normalize, SubarrayDesugaringSimplifies) {
  const std::vector<std::int64_t> sizes{16, 16};
  const std::vector<std::int64_t> subsizes{4, 16};
  const std::vector<std::int64_t> starts{4, 0};
  // Full-width rows: the subarray is one contiguous run inside the array.
  auto t = Type::subarray(sizes, subsizes, starts, Type::float64());
  auto n = normalize(t);
  expect_equivalent(t, n);
  EXPECT_LE(n->block_count(), t->block_count());
}

// Property sweep: normalization must be semantics-preserving on random
// nested types, and must never increase the block count.
class NormalizeProperty : public ::testing::TestWithParam<int> {};

TypePtr random_nested(sim::Rng& rng, int depth) {
  if (depth == 0) return rng.chance(0.5) ? Type::int32() : Type::float64();
  auto base = random_nested(rng, depth - 1);
  switch (rng.below(5)) {
    case 0:
      return Type::contiguous(rng.range(1, 5), base);
    case 1: {
      const auto bl = rng.range(1, 3);
      return Type::vector(rng.range(1, 5), bl, rng.range(bl, bl + 3), base);
    }
    case 2: {
      std::vector<std::int64_t> displs{0};
      const auto step = rng.range(2, 6);
      const bool uniform = rng.chance(0.5);
      const auto n = rng.range(2, 5);
      for (std::int64_t i = 1; i < n; ++i) {
        displs.push_back(displs.back() +
                         (uniform ? step : rng.range(2, 6)));
      }
      return Type::indexed_block(1, displs, base);
    }
    case 3: {
      std::vector<std::int64_t> blocklens, displs;
      std::int64_t at = 0;
      const bool equal = rng.chance(0.5);
      const auto bl0 = rng.range(1, 3);
      const auto n = rng.range(1, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        const auto bl = equal ? bl0 : rng.range(1, 3);
        blocklens.push_back(bl);
        displs.push_back(at);
        at += bl + rng.range(0, 2);
      }
      return Type::indexed(blocklens, displs, base);
    }
    default:
      return Type::resized(base, base->lb(),
                           base->extent() + rng.range(0, 8));
  }
}

TEST_P(NormalizeProperty, PreservesTypeMap) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  auto t = random_nested(rng, 3);
  auto n = normalize(t);
  expect_equivalent(t, n);
  EXPECT_LE(n->block_count(), t->block_count());
  // Normalization is idempotent.
  expect_equivalent(n, normalize(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizeProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace netddt::ddt
