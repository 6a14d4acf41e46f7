#pragma once
// Host-time microbenchmarks of single layers, run only in the traced
// invocation. Each one times the layer's public entry points on inputs
// taken from the workload (its own datatype layouts, its matching-unit
// depth), so a change to one layer shows up here before it moves the
// workload's end-to-end host time.

#include <cstdint>
#include <optional>
#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace perf_ladder {

/// Byte engines over a workload's layouts, 2 KiB chunks: the Segment
/// interpreter and the compiled flat program behind dataloop::Packer /
/// Unpacker, the ddt::pack/unpack reference, and a memcpy roofline.
/// Throughputs are total bytes over total seconds (GB/s = 1e9 B/s);
/// compile times are per layout, best of three.
struct ByteEngines {
  double segment_pack_gbps = 0.0;
  double segment_unpack_gbps = 0.0;
  double program_pack_gbps = 0.0;
  double program_unpack_gbps = 0.0;
  double memcpy_gbps = 0.0;
  double ddt_pack_gbps = 0.0;
  double ddt_unpack_gbps = 0.0;
  double compile_us = 0.0;
  double program_compile_us = 0.0;
  /// Layouts whose engines were cross-checked byte for byte, and those
  /// where any two engines disagreed.
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
};

/// Each layout is streamed until at least `min_bytes` went through each
/// engine.
ByteEngines measure_byte_engines(const std::vector<Layout>& layouts,
                                 std::uint64_t min_bytes,
                                 SpanRecorder& spans);

/// sim::Engine schedule + dispatch cost: 64 self-rescheduling event
/// chains at random delays, `events` dispatches in total.
double engine_ns_per_event(std::uint64_t events, SpanRecorder& spans);

/// Hashed matching unit at a steady `posted` depth: each op appends a
/// use-once receive and matches the oldest one away (the service's
/// post/complete cycle). Empty when any match missed.
std::optional<double> match_ns_per_op(std::uint64_t posted,
                                      std::uint64_t ops,
                                      SpanRecorder& spans);

}  // namespace perf_ladder
