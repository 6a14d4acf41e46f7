#pragma once
// Typed-element primitives for the in-network compute handler families
// (docs/HANDLERS.md). The sPIN paper pitches handlers as general packet
// programs; this header is the vocabulary that lets HPU handlers *compute*
// on the byte stream instead of only scattering it:
//
//  * ElemType / ReduceOp — the element view and the reduction lattice for
//    streaming reduction and scatter-with-accumulate (MPI_Accumulate
//    shape). `apply_reduce` is the single read-modify-write kernel shared
//    by the DMA engine (functional landing), the host-side baseline, and
//    every verification reference, so "offloaded result == host result"
//    is bit-exact by construction. It picks one loop per (element type,
//    op) once per call, with no branch inside, which an -O3 build
//    vectorizes at baseline flags without changing a result bit.
//  * QuantScheme — element-wise wire transforms: the sender quantizes,
//    the wire carries the narrow form, the receiving handler dequantizes.
//    Both directions live here for the same shared-kernel reason.
//  * fill_typed — a deterministic generator of *valid* element values
//    (finite floats, small integers) used for message payloads and for
//    pre-loading destination buffers, so reductions never hit NaNs or
//    signed-overflow UB. One loop per element type, chosen per call.
//
// Everything in this file is pure byte manipulation: loads and stores go
// through std::memcpy, so element positions need no alignment (dataloop
// regions may place an int64 at any byte offset).

#include <cstddef>
#include <cstdint>

namespace netddt::spin {

/// Which handler family an execution context implements. kScatter is the
/// historical byte-moving unpack path (all of src/offload's strategies);
/// the other three compute on the stream. Families whose DMA writes are
/// read-modify-write (see ExecutionContext::rmw()) get duplicate-replay
/// gating in NicModel::deliver.
enum class HandlerFamily : std::uint8_t {
  kScatter,     // move bytes (plain idempotent DMA writes)
  kReduce,      // streaming reduction into a contiguous target
  kTransform,   // dequantize wire elements, then plain writes
  kAccumulate,  // reduction scattered into non-contiguous targets
};

/// True for the families whose DMA writes are read-modify-write.
constexpr bool read_modify_write(HandlerFamily f) {
  return f == HandlerFamily::kReduce || f == HandlerFamily::kAccumulate;
}

enum class ElemType : std::uint8_t { kInt8, kInt32, kInt64, kFloat32,
                                     kFloat64 };

enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };

/// Wire transform: logical (host) element -> narrower wire element.
enum class QuantScheme : std::uint8_t {
  kF64ToF32,  // double on the host, float on the wire (2x)
  kF32ToI8,   // float on the host, fixed-scale int8 on the wire (4x)
};

std::size_t elem_size(ElemType t);
const char* elem_name(ElemType t);
const char* op_name(ReduceOp op);
const char* family_name(HandlerFamily f);
const char* quant_name(QuantScheme q);

/// Logical (host-side) and wire element widths of a transform scheme.
std::size_t quant_host_elem(QuantScheme q);
std::size_t quant_wire_elem(QuantScheme q);

/// dst[i] = dst[i] (op) src[i] over bytes/elem_size(elem) elements.
/// `bytes` must be a whole number of elements; dst/src may be unaligned
/// and may alias. Integer sums wrap (performed on the unsigned
/// counterpart — never UB); min/max keep dst's bits on a tie.
void apply_reduce(std::byte* dst, const std::byte* src, std::size_t bytes,
                  ReduceOp op, ElemType elem);

/// Sender side: narrow `host_bytes` of logical elements into
/// host_bytes / host * wire bytes at `wire`.
void quantize(std::byte* wire, const std::byte* host,
              std::size_t host_bytes, QuantScheme q);
/// Receiver side: widen `wire_bytes` of wire elements into
/// wire_bytes / wire * host bytes at `host`. Exact inverse of `quantize`
/// for values produced by `fill_typed` (chosen exactly representable).
void dequantize(std::byte* host, const std::byte* wire,
                std::size_t wire_bytes, QuantScheme q);

/// Fill [dst, dst+bytes) with a deterministic pattern of valid elements:
/// element k holds a pure function of (first_elem + k, seed). Floats are
/// finite small multiples of 0.5 (exactly representable as f32 and
/// round-tripping through both QuantSchemes); integers are small enough
/// that per-message sums stay far from the unsigned wrap. `bytes` must be
/// a whole number of elements.
void fill_typed(std::byte* dst, std::size_t bytes, ElemType elem,
                std::uint64_t seed, std::uint64_t first_elem = 0);

/// Compute request a receive-side caller attaches to a run (the runner's
/// ReceiveConfig::compute): which family, and its element parameters.
/// `op`/`elem` drive kReduce/kAccumulate; `quant` drives kTransform.
struct ComputeConfig {
  HandlerFamily family = HandlerFamily::kReduce;
  ReduceOp op = ReduceOp::kSum;
  ElemType elem = ElemType::kInt32;
  QuantScheme quant = QuantScheme::kF64ToF32;
};

}  // namespace netddt::spin
