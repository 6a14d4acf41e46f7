// Differential tests of the typed element kernels (spin/compute.hpp)
// against the scalar reference loops of tests/reference/compute.hpp:
// apply_reduce over every op x element type, many lengths, unaligned
// and aliased operands and edge values; fill_typed over seeds and
// starting elements. Results must agree byte for byte.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "reference/compute.hpp"
#include "spin/compute.hpp"

namespace netddt::spin {
namespace {

constexpr ElemType kElems[] = {ElemType::kInt8, ElemType::kInt32,
                               ElemType::kInt64, ElemType::kFloat32,
                               ElemType::kFloat64};
constexpr ReduceOp kOps[] = {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax};
constexpr std::size_t kLengths[] = {0, 1, 3, 15, 16, 17, 511, 512, 2048};
constexpr std::size_t kOffsets[] = {0, 1, 3};

// Integers: arbitrary bit patterns, with the extremes and their
// neighbours mixed in so sums wrap at both ends.
template <typename T>
T edge_int(std::uint64_t h) {
  using L = std::numeric_limits<T>;
  switch (h % 8) {
    case 0: return L::min();
    case 1: return L::max();
    case 2: return T{-1};
    case 3: return T{1};
    default: return static_cast<T>(h >> 8);
  }
}

// Floats: finite values only (fill_typed never makes NaNs), with ±0.0
// frequent enough that min/max ties between them occur, plus large,
// tiny and subnormal magnitudes.
template <typename T>
T edge_float(std::uint64_t h) {
  using L = std::numeric_limits<T>;
  const T sign = (h >> 8) % 2 == 0 ? T{1} : T{-1};
  switch (h % 8) {
    case 0:
    case 1: return sign * T{0};
    case 2: return sign * L::max();
    case 3: return sign * L::denorm_min();
    case 4: return sign * L::min();
    default:
      return sign * static_cast<T>(static_cast<int>((h >> 16) % 193)) *
             T{0.5};
  }
}

template <typename T>
void put(std::byte* at, T v) {
  std::memcpy(at, &v, sizeof(T));
}

// `n` elements of `elem` at `dst` drawn from the edge generators.
void fill_edges(std::byte* dst, std::size_t n, ElemType elem,
                std::uint64_t salt) {
  const std::size_t e = elem_size(elem);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = reference::mix64(i ^ (salt << 32));
    std::byte* at = dst + i * e;
    switch (elem) {
      case ElemType::kInt8: put(at, edge_int<std::int8_t>(h)); break;
      case ElemType::kInt32: put(at, edge_int<std::int32_t>(h)); break;
      case ElemType::kInt64: put(at, edge_int<std::int64_t>(h)); break;
      case ElemType::kFloat32: put(at, edge_float<float>(h)); break;
      case ElemType::kFloat64: put(at, edge_float<double>(h)); break;
    }
  }
}

std::string describe(ReduceOp op, ElemType elem, std::size_t n) {
  return std::string(op_name(op)) + "/" + elem_name(elem) + " n=" +
         std::to_string(n);
}

TEST(ComputeKernels, ApplyReduceMatchesReference) {
  for (const ElemType elem : kElems) {
    const std::size_t e = elem_size(elem);
    for (const ReduceOp op : kOps) {
      for (const std::size_t n : kLengths) {
        for (const std::size_t dst_off : kOffsets) {
          for (const std::size_t src_off : kOffsets) {
            SCOPED_TRACE(describe(op, elem, n) + " dst+" +
                         std::to_string(dst_off) + " src+" +
                         std::to_string(src_off));
            // One guard byte past each buffer checks the length.
            std::vector<std::byte> src(src_off + n * e + 1, std::byte{0x5a});
            std::vector<std::byte> want(dst_off + n * e + 1, std::byte{0xa5});
            fill_edges(src.data() + src_off, n, elem, 1);
            fill_edges(want.data() + dst_off, n, elem, 2);
            std::vector<std::byte> got = want;
            apply_reduce(got.data() + dst_off, src.data() + src_off, n * e,
                         op, elem);
            reference::apply_reduce(want.data() + dst_off,
                                    src.data() + src_off, n * e, op, elem);
            ASSERT_EQ(got, want);
          }
        }
      }
    }
  }
}

TEST(ComputeKernels, ApplyReduceInPlaceMatchesReference) {
  for (const ElemType elem : kElems) {
    const std::size_t e = elem_size(elem);
    for (const ReduceOp op : kOps) {
      for (const std::size_t n : kLengths) {
        for (const std::size_t off : kOffsets) {
          SCOPED_TRACE(describe(op, elem, n) + " dst == src +" +
                       std::to_string(off));
          std::vector<std::byte> want(off + n * e + 1, std::byte{0xa5});
          fill_edges(want.data() + off, n, elem, 3);
          std::vector<std::byte> got = want;
          apply_reduce(got.data() + off, got.data() + off, n * e, op, elem);
          reference::apply_reduce(want.data() + off, want.data() + off,
                                  n * e, op, elem);
          ASSERT_EQ(got, want);
        }
      }
    }
  }
}

template <typename T>
T reduce_one(T a, T b, ReduceOp op) {
  std::byte dst[sizeof(T)];
  std::byte src[sizeof(T)];
  std::memcpy(dst, &a, sizeof(T));
  std::memcpy(src, &b, sizeof(T));
  ElemType elem = ElemType::kInt8;
  if constexpr (std::is_same_v<T, std::int32_t>) elem = ElemType::kInt32;
  if constexpr (std::is_same_v<T, std::int64_t>) elem = ElemType::kInt64;
  if constexpr (std::is_same_v<T, float>) elem = ElemType::kFloat32;
  if constexpr (std::is_same_v<T, double>) elem = ElemType::kFloat64;
  apply_reduce(dst, src, sizeof(T), op, elem);
  T r;
  std::memcpy(&r, dst, sizeof(T));
  return r;
}

template <typename T>
void expect_wraps() {
  using L = std::numeric_limits<T>;
  EXPECT_EQ(reduce_one<T>(L::max(), T{1}, ReduceOp::kSum), L::min());
  EXPECT_EQ(reduce_one<T>(L::min(), T{-1}, ReduceOp::kSum), L::max());
  EXPECT_EQ(reduce_one<T>(L::min(), L::min(), ReduceOp::kSum), T{0});
  EXPECT_EQ(reduce_one<T>(L::max(), L::min(), ReduceOp::kMin), L::min());
  EXPECT_EQ(reduce_one<T>(L::min(), L::max(), ReduceOp::kMax), L::max());
}

// On a tie the destination's bits are kept: min(+0, -0) and max(+0, -0)
// return whichever zero was in dst.
template <typename T>
void expect_zero_ties() {
  for (const ReduceOp op : {ReduceOp::kMin, ReduceOp::kMax}) {
    EXPECT_FALSE(std::signbit(reduce_one<T>(T{0}, -T{0}, op)));
    EXPECT_TRUE(std::signbit(reduce_one<T>(-T{0}, T{0}, op)));
  }
  EXPECT_TRUE(std::signbit(reduce_one<T>(-T{0}, -T{0}, ReduceOp::kSum)));
  EXPECT_FALSE(std::signbit(reduce_one<T>(T{0}, -T{0}, ReduceOp::kSum)));
}

TEST(ComputeKernels, EdgeValues) {
  expect_wraps<std::int8_t>();
  expect_wraps<std::int32_t>();
  expect_wraps<std::int64_t>();
  expect_zero_ties<float>();
  expect_zero_ties<double>();
}

TEST(ComputeKernels, FillTypedMatchesReference) {
  constexpr std::uint64_t kSeeds[] = {0, 1, 7, 0x9E3779B97F4A7C15ull,
                                      ~std::uint64_t{0}};
  constexpr std::uint64_t kFirst[] = {0,    1, 3,
                                      1000, (std::uint64_t{1} << 40) + 5,
                                      ~std::uint64_t{0} - 8};
  for (const ElemType elem : kElems) {
    const std::size_t e = elem_size(elem);
    for (const std::uint64_t seed : kSeeds) {
      for (const std::uint64_t first : kFirst) {
        for (const std::size_t n : kLengths) {
          SCOPED_TRACE(std::string(elem_name(elem)) + " seed=" +
                       std::to_string(seed) + " first=" +
                       std::to_string(first) + " n=" + std::to_string(n));
          // Written one byte into the buffer: no alignment is assumed.
          std::vector<std::byte> want(n * e + 2, std::byte{0xa5});
          std::vector<std::byte> got = want;
          fill_typed(got.data() + 1, n * e, elem, seed, first);
          reference::fill_typed(want.data() + 1, n * e, elem, seed, first);
          ASSERT_EQ(got, want);
        }
      }
    }
  }
}

}  // namespace
}  // namespace netddt::spin
