#pragma once
// Reference element kernels for differential tests: apply_reduce and
// fill_typed of spin/compute.hpp written as one scalar loop that
// switches on the op (or the element type) per element. The library
// picks one branch-free loop per (element type, op) once per call; both
// must produce the same bytes for every input.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "spin/compute.hpp"

namespace netddt::spin::reference {

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename T>
T load(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void store(std::byte* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

// U is T's unsigned counterpart for integers (sums wrap), T for floats.
template <typename T, typename U>
void reduce(std::byte* dst, const std::byte* src, std::size_t n,
            ReduceOp op) {
  for (std::size_t i = 0; i < n; ++i) {
    const T a = load<T>(dst + i * sizeof(T));
    const T b = load<T>(src + i * sizeof(T));
    T r;
    switch (op) {
      case ReduceOp::kSum:
        r = static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
        break;
      case ReduceOp::kMin: r = b < a ? b : a; break;
      case ReduceOp::kMax: r = a < b ? b : a; break;
      default: r = a; break;
    }
    store<T>(dst + i * sizeof(T), r);
  }
}

inline void apply_reduce(std::byte* dst, const std::byte* src,
                         std::size_t bytes, ReduceOp op, ElemType elem) {
  const std::size_t n = bytes / elem_size(elem);
  switch (elem) {
    case ElemType::kInt8:
      reduce<std::int8_t, std::uint8_t>(dst, src, n, op);
      break;
    case ElemType::kInt32:
      reduce<std::int32_t, std::uint32_t>(dst, src, n, op);
      break;
    case ElemType::kInt64:
      reduce<std::int64_t, std::uint64_t>(dst, src, n, op);
      break;
    case ElemType::kFloat32: reduce<float, float>(dst, src, n, op); break;
    case ElemType::kFloat64: reduce<double, double>(dst, src, n, op); break;
  }
}

inline void fill_typed(std::byte* dst, std::size_t bytes, ElemType elem,
                       std::uint64_t seed, std::uint64_t first_elem = 0) {
  const std::size_t e = elem_size(elem);
  const std::size_t n = bytes / e;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = mix64((first_elem + i) ^ (seed * 0x9E3779B9ull));
    std::byte* at = dst + i * e;
    switch (elem) {
      case ElemType::kInt8:
        store<std::int8_t>(
            at, static_cast<std::int8_t>(static_cast<int>(h % 251) - 125));
        break;
      case ElemType::kInt32:
        store<std::int32_t>(
            at, static_cast<std::int32_t>(static_cast<int>(h % 1021) - 510));
        break;
      case ElemType::kInt64:
        store<std::int64_t>(at, static_cast<std::int64_t>(h % 100003) -
                                    50001);
        break;
      case ElemType::kFloat32:
        store<float>(at,
                     static_cast<float>(static_cast<int>(h % 193) - 96) *
                         0.5f);
        break;
      case ElemType::kFloat64:
        store<double>(
            at, static_cast<double>(static_cast<int>(h % 193) - 96) * 0.5);
        break;
    }
  }
}

}  // namespace netddt::spin::reference
