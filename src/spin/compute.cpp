#include "spin/compute.hpp"

#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>

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

// The kernels below pick their element loop once per call: the switch on
// (elem, op) sits outside the loop, and each loop body is one branch-free
// expression over memcpy loads and stores, which an -O3 build vectorizes
// at baseline flags while keeping every result bit-identical.

// Signed sums go through the unsigned counterpart: wraparound instead of
// undefined behavior, and bit-identical on every platform.
template <typename T>
T wrap_sum(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
  } else {
    return a + b;
  }
}

// dst[i] = f(dst[i], src[i]). dst and src may alias; the loop has the
// sequential semantics either way.
template <typename T, typename F>
void reduce_loop(std::byte* dst, const std::byte* src, std::size_t n, F f) {
  for (std::size_t i = 0; i < n; ++i) {
    store<T>(dst + i * sizeof(T),
             f(load<T>(dst + i * sizeof(T)), load<T>(src + i * sizeof(T))));
  }
}

// Min/max use a plain comparison (not fmin/fmax): fill_typed never
// produces NaNs, and the ternary copies one operand's bits verbatim, so
// NIC and host references agree bit-for-bit (on ties, +0.0 vs -0.0
// included, the destination operand is kept).
template <typename T>
void reduce_elems(std::byte* dst, const std::byte* src, std::size_t n,
                  ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      reduce_loop<T>(dst, src, n, [](T a, T b) { return wrap_sum(a, b); });
      break;
    case ReduceOp::kMin:
      reduce_loop<T>(dst, src, n, [](T a, T b) { return b < a ? b : a; });
      break;
    case ReduceOp::kMax:
      reduce_loop<T>(dst, src, n, [](T a, T b) { return a < b ? b : a; });
      break;
  }
}

// Element k of a fill holds gen(mix64((first + k) ^ key)).
template <typename T, typename Gen>
void fill_loop(std::byte* dst, std::size_t n, std::uint64_t key,
               std::uint64_t first, Gen gen) {
  for (std::size_t i = 0; i < n; ++i) {
    store<T>(dst + i * sizeof(T), gen(mix64((first + i) ^ key)));
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
    case ElemType::kInt8: reduce_elems<std::int8_t>(dst, src, n, op); break;
    case ElemType::kInt32: reduce_elems<std::int32_t>(dst, src, n, op); break;
    case ElemType::kInt64: reduce_elems<std::int64_t>(dst, src, n, op); break;
    case ElemType::kFloat32: reduce_elems<float>(dst, src, n, op); break;
    case ElemType::kFloat64: reduce_elems<double>(dst, src, n, op); break;
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
  const std::uint64_t key = seed * 0x9E3779B9ull;
  switch (elem) {
    case ElemType::kInt8:
      fill_loop<std::int8_t>(dst, n, key, first_elem, [](std::uint64_t h) {
        return static_cast<std::int8_t>(static_cast<int>(h % 251) - 125);
      });
      break;
    case ElemType::kInt32:
      fill_loop<std::int32_t>(dst, n, key, first_elem, [](std::uint64_t h) {
        return static_cast<std::int32_t>(static_cast<int>(h % 1021) - 510);
      });
      break;
    case ElemType::kInt64:
      fill_loop<std::int64_t>(dst, n, key, first_elem, [](std::uint64_t h) {
        return static_cast<std::int64_t>(h % 100003) - 50001;
      });
      break;
    // Floats are multiples of 0.5 in [-48, 48]: exact in f32, exact
    // through both quantization schemes.
    case ElemType::kFloat32:
      fill_loop<float>(dst, n, key, first_elem, [](std::uint64_t h) {
        return static_cast<float>(static_cast<int>(h % 193) - 96) * 0.5f;
      });
      break;
    case ElemType::kFloat64:
      fill_loop<double>(dst, n, key, first_elem, [](std::uint64_t h) {
        return static_cast<double>(static_cast<int>(h % 193) - 96) * 0.5;
      });
      break;
  }
}

}  // namespace netddt::spin
