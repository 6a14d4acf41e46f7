#pragma once
// Reference host-unpack estimate for differential tests: the model of
// offload/host_model.hpp computed straight from Datatype::flatten(),
// once per instance list and once over all `count` instances. The
// library reads the type's once-computed region facts instead; both
// must agree field for field.

#include <cstdint>

#include "ddt/datatype.hpp"
#include "offload/host_model.hpp"
#include "spin/cost_model.hpp"

namespace netddt::offload::reference {

inline std::uint64_t touched_line_bytes(const ddt::Datatype& type,
                                        std::uint64_t count,
                                        std::uint64_t line_bytes) {
  std::uint64_t lines = 0;
  const auto regions = type.flatten(count);
  std::int64_t last_line = -1;
  for (const auto& r : regions) {
    const std::int64_t first =
        r.offset / static_cast<std::int64_t>(line_bytes);
    const std::int64_t last =
        (r.offset + static_cast<std::int64_t>(r.size) - 1) /
        static_cast<std::int64_t>(line_bytes);
    lines += static_cast<std::uint64_t>(last - first + 1);
    if (first == last_line && lines > 0) --lines;  // shared boundary line
    last_line = last;
  }
  return lines * line_bytes;
}

inline HostUnpackEstimate host_unpack_estimate(const ddt::Datatype& type,
                                               std::uint64_t count,
                                               const spin::CostModel& cost) {
  HostUnpackEstimate est;
  const auto regions = type.flatten(1);
  est.blocks = regions.size() * count;
  sim::Time per_instance = 0;
  for (const auto& r : regions) {
    per_instance += cost.host_block_overhead +
                    sim::transfer_time(r.size, cost.host_copy_gBps * 8.0);
  }
  est.unpack_time = per_instance * static_cast<sim::Time>(count);
  const std::uint64_t message = type.size() * count;
  est.traffic_bytes =
      message + message + touched_line_bytes(type, count, cost.cacheline_bytes);
  return est;
}

}  // namespace netddt::offload::reference
