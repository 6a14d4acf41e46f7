#include "offload/host_model.hpp"

namespace netddt::offload {
namespace {

std::uint64_t touched_line_bytes(const ddt::Datatype& type,
                                 std::uint64_t count,
                                 std::uint64_t line_bytes) {
  // Count distinct destination cache lines across the merged regions of
  // `count` instances, in the order Datatype::flatten lists them.
  // Regions are disjoint, so summing per-region line spans over-counts
  // shared boundary lines only; we discount a line shared with the
  // previous region and accept the remaining double-count as noise < 1
  // line per region.
  //
  // Walks the one-instance regions shifted by i * extent instead of
  // materializing the list for all instances. Where instances join, that
  // list has one region spanning the seam instead of two; the two halves
  // cover the same lines and the shared-line discount removes the one
  // they have in common, so the total is the same.
  const auto line = static_cast<std::int64_t>(line_bytes);
  const auto& regions = type.region_facts().regions;
  std::uint64_t lines = 0;
  std::int64_t last_line = -1;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t base = static_cast<std::int64_t>(i) * type.extent();
    for (const auto& r : regions) {
      const std::int64_t first = (base + r.offset) / line;
      const std::int64_t last =
          (base + r.offset + static_cast<std::int64_t>(r.size) - 1) / line;
      lines += static_cast<std::uint64_t>(last - first + 1);
      if (first == last_line) --lines;  // shared boundary line
      last_line = last;
    }
  }
  return lines * line_bytes;
}

}  // namespace

HostUnpackEstimate host_unpack_estimate(const ddt::Datatype& type,
                                        std::uint64_t count,
                                        const spin::CostModel& cost) {
  HostUnpackEstimate est;
  const auto& regions = type.region_facts().regions;
  est.blocks = regions.size() * count;

  sim::Time per_instance = 0;
  for (const auto& r : regions) {
    per_instance += cost.host_block_overhead +
                    sim::transfer_time(r.size, cost.host_copy_gBps * 8.0);
  }
  est.unpack_time = per_instance * static_cast<sim::Time>(count);

  const std::uint64_t message = type.size() * count;
  const std::uint64_t touched =
      touched_line_bytes(type, count, cost.cacheline_bytes);
  // Paper Fig 17 accounting: the message lands in memory once, then the
  // unpack's LLC misses (packed-stream reads + destination line fills)
  // move data again. Write-backs are not counted (they happen lazily).
  est.traffic_bytes = message       // NIC -> memory
                      + message     // packed-stream read misses
                      + touched;    // destination line fills (RFO)
  return est;
}

sim::Time host_pack_time(const ddt::Datatype& type, std::uint64_t count,
                         const spin::CostModel& cost) {
  // Packing walks the same regions; gathering into a dense buffer has
  // the same block overhead + copy cost structure as unpacking.
  return host_unpack_estimate(type, count, cost).unpack_time;
}

sim::Time host_checkpoint_setup_time(std::uint64_t blocks,
                                     std::uint64_t checkpoint_bytes,
                                     const spin::CostModel& cost) {
  const sim::Time walk =
      cost.host_checkpoint_walk_per_block * static_cast<sim::Time>(blocks);
  const sim::Time copy = cost.pcie_read_latency +  // doorbell/setup
                         cost.pcie_transfer(checkpoint_bytes);
  return walk + copy;
}

}  // namespace netddt::offload
