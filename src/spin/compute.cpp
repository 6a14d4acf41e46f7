#include "spin/compute.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "sim/check.hpp"

namespace netddt::spin {
namespace {

// splitmix64: one multiply-xor round per element keeps fill_typed cheap
// enough for multi-MiB messages while decorrelating neighboring elements.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The detail of a failed whole-element check.
std::string whole_elements(const char* fn, std::size_t bytes,
                           std::size_t elem) {
  return std::string(fn) + " needs whole elements: " + std::to_string(bytes) +
         " bytes of " + std::to_string(elem) + "-byte elements";
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

// Signed sums go through the unsigned counterpart: wraparound instead of
// undefined behavior, and bit-identical on every platform.
template <typename T, typename U>
void reduce_int(std::byte* dst, const std::byte* src, std::size_t n,
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

// Float min/max use a plain comparison (not fmin/fmax): fill_typed never
// produces NaNs, and the ternary copies one operand's bits verbatim, so
// NIC and host references agree bit-for-bit.
template <typename T>
void reduce_float(std::byte* dst, const std::byte* src, std::size_t n,
                  ReduceOp op) {
  for (std::size_t i = 0; i < n; ++i) {
    const T a = load<T>(dst + i * sizeof(T));
    const T b = load<T>(src + i * sizeof(T));
    T r;
    switch (op) {
      case ReduceOp::kSum: r = a + b; break;
      case ReduceOp::kMin: r = b < a ? b : a; break;
      case ReduceOp::kMax: r = a < b ? b : a; break;
      default: r = a; break;
    }
    store<T>(dst + i * sizeof(T), r);
  }
}

}  // namespace

std::size_t elem_size(ElemType t) {
  switch (t) {
    case ElemType::kInt8: return 1;
    case ElemType::kInt32: return 4;
    case ElemType::kInt64: return 8;
    case ElemType::kFloat32: return 4;
    case ElemType::kFloat64: return 8;
  }
  return 1;
}

const char* elem_name(ElemType t) {
  switch (t) {
    case ElemType::kInt8: return "i8";
    case ElemType::kInt32: return "i32";
    case ElemType::kInt64: return "i64";
    case ElemType::kFloat32: return "f32";
    case ElemType::kFloat64: return "f64";
  }
  return "?";
}

const char* op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMax: return "max";
  }
  return "?";
}

const char* family_name(HandlerFamily f) {
  switch (f) {
    case HandlerFamily::kScatter: return "scatter";
    case HandlerFamily::kReduce: return "reduce";
    case HandlerFamily::kTransform: return "transform";
    case HandlerFamily::kAccumulate: return "accumulate";
  }
  return "?";
}

const char* quant_name(QuantScheme q) {
  switch (q) {
    case QuantScheme::kF64ToF32: return "f64->f32";
    case QuantScheme::kF32ToI8: return "f32->i8";
  }
  return "?";
}

std::size_t quant_host_elem(QuantScheme q) {
  return q == QuantScheme::kF64ToF32 ? 8 : 4;
}

std::size_t quant_wire_elem(QuantScheme q) {
  return q == QuantScheme::kF64ToF32 ? 4 : 1;
}

void apply_reduce(std::byte* dst, const std::byte* src, std::size_t bytes,
                  ReduceOp op, ElemType elem) {
  const std::size_t e = elem_size(elem);
  NETDDT_CHECK(bytes % e == 0, whole_elements("apply_reduce", bytes, e));
  const std::size_t n = bytes / e;
  switch (elem) {
    case ElemType::kInt8:
      reduce_int<std::int8_t, std::uint8_t>(dst, src, n, op);
      break;
    case ElemType::kInt32:
      reduce_int<std::int32_t, std::uint32_t>(dst, src, n, op);
      break;
    case ElemType::kInt64:
      reduce_int<std::int64_t, std::uint64_t>(dst, src, n, op);
      break;
    case ElemType::kFloat32: reduce_float<float>(dst, src, n, op); break;
    case ElemType::kFloat64: reduce_float<double>(dst, src, n, op); break;
  }
}

// kF32ToI8 fixed scale: wire = round(host / kI8Scale), host' = wire *
// kI8Scale. fill_typed keeps |host| <= 48 in steps of 0.5, so the wire
// value stays in [-96, 96] and the round trip is exact.
namespace {
constexpr float kI8Scale = 0.5f;
}

void quantize(std::byte* wire, const std::byte* host,
              std::size_t host_bytes, QuantScheme q) {
  const std::size_t h = quant_host_elem(q);
  NETDDT_CHECK(host_bytes % h == 0, whole_elements("quantize", host_bytes, h));
  const std::size_t n = host_bytes / h;
  if (q == QuantScheme::kF64ToF32) {
    for (std::size_t i = 0; i < n; ++i) {
      store<float>(wire + i * 4,
                   static_cast<float>(load<double>(host + i * 8)));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      float v = load<float>(host + i * 4) / kI8Scale;
      if (v > 127.0f) v = 127.0f;
      if (v < -128.0f) v = -128.0f;
      store<std::int8_t>(wire + i,
                         static_cast<std::int8_t>(std::lrint(v)));
    }
  }
}

void dequantize(std::byte* host, const std::byte* wire,
                std::size_t wire_bytes, QuantScheme q) {
  const std::size_t w = quant_wire_elem(q);
  NETDDT_CHECK(wire_bytes % w == 0,
               whole_elements("dequantize", wire_bytes, w));
  const std::size_t n = wire_bytes / w;
  if (q == QuantScheme::kF64ToF32) {
    for (std::size_t i = 0; i < n; ++i) {
      store<double>(host + i * 8,
                    static_cast<double>(load<float>(wire + i * 4)));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      store<float>(host + i * 4,
                   static_cast<float>(load<std::int8_t>(wire + i)) *
                       kI8Scale);
    }
  }
}

void fill_typed(std::byte* dst, std::size_t bytes, ElemType elem,
                std::uint64_t seed, std::uint64_t first_elem) {
  const std::size_t e = elem_size(elem);
  NETDDT_CHECK(bytes % e == 0, whole_elements("fill_typed", bytes, e));
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
        // Multiples of 0.5 in [-48, 48]: exact in f32, exact through
        // both quantization schemes.
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

}  // namespace netddt::spin
