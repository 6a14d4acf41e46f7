#pragma once
// Receive-side plans for the compute handler families (docs/HANDLERS.md):
//
//  * kReduce — streaming reduction: stream byte s lands at destination
//    byte s, combined elementwise (dst = dst op src) with whatever the
//    receive buffer already holds. The mapping is the identity (walked
//    as one region over the whole target), so any packet resumes at its
//    own stream offset with no inter-packet state.
//  * kAccumulate — the MPI_Accumulate shape: the same elementwise combine
//    scattered through the datatype's region list, walked by the one
//    region-list walker (ddt::RegionList, as in SpecializedPlan's
//    region-list mode), or, with PackEngine::kProgram, through the
//    compiled flat program's fused regions.
//  * kTransform — element-wise wire transform: the sender quantized, the
//    wire carries narrow elements, the handler dequantizes and issues
//    plain (idempotent) writes into a contiguous destination.
//
// Element-granular resume: packets split the stream at arbitrary byte
// offsets, so a typed element can straddle two packets (13/29-byte fuzz
// payloads force this constantly). Each handler splits its window into an
// element-aligned core — one RMW (or dequantized write) per contiguous
// run — plus head/tail *fragments*. Fragment bytes are staged in NIC
// memory keyed by global element index; when all bytes of an element have
// arrived (in any packet order), one whole-element request is issued.
// Because duplicates are gated at the NIC for RMW families (the seen
// bitmap, src/spin/nic.cpp), every stream byte is staged exactly once and
// the result is bit-identical under any arrival order, loss, or replay.

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "dataloop/program.hpp"
#include "ddt/datatype.hpp"
#include "sim/metrics.hpp"
#include "spin/compute.hpp"
#include "spin/handler.hpp"
#include "spin/nic.hpp"

namespace netddt::offload {

/// Host-side baseline for ablation_reduce: receive the stream into a
/// bounce buffer (plain RDMA), then reduce/transform on the CPU. The
/// per-element ALU term is minor; the cost is dominated by cold-cache
/// memory traffic (stream read + destination read + write-back for RMW).
struct HostComputeEstimate {
  sim::Time time = 0;
  std::uint64_t traffic_bytes = 0;
};
HostComputeEstimate host_compute_estimate(const ddt::TypePtr& type,
                                          std::uint64_t count,
                                          const spin::ComputeConfig& cc,
                                          const spin::CostModel& cost);

class ComputePlan {
 public:
  /// Build a plan, or nullptr when the stream-to-target mapping is not
  /// element-aligned (see elem_eligible). `engine` selects the dataloop
  /// walk for kAccumulate (region list vs compiled flat program); the
  /// other families ignore it. Registers the nic.compute.* counters in
  /// `metrics` — lazily correct, since only compute runs build a plan.
  static std::unique_ptr<ComputePlan> create(const ddt::TypePtr& type,
                                             std::uint64_t count,
                                             const spin::CostModel& cost,
                                             dataloop::PackEngine engine,
                                             const spin::ComputeConfig& cc,
                                             sim::MetricsRegistry& metrics);

  /// An element may never span two destination regions (its bytes must be
  /// contiguous in both stream and target). True iff every flattened
  /// region's size is a whole number of elements — which also makes every
  /// region's stream offset element-aligned. kReduce/kTransform map to a
  /// single contiguous region, so only the total must divide.
  static bool elem_eligible(const ddt::TypePtr& type, std::uint64_t count,
                            const spin::ComputeConfig& cc);

  spin::ExecutionContext context(spin::NicModel& nic);

  /// NIC-resident descriptor: family header + element params, plus the
  /// region list / program for kAccumulate (the SpecializedPlan analogue).
  std::uint64_t descriptor_bytes() const { return descriptor_bytes_; }

  const spin::ComputeConfig& config() const { return cc_; }

  /// Build the expected destination contents (init-fill + one combined
  /// contribution per element) into `buf`, a buffer_bytes-sized window
  /// whose byte `shift` is destination offset 0. Shared by the runner's
  /// verification and the fuzz oracle's independent host reference.
  void host_reference(std::byte* buf, std::int64_t shift,
                      const std::byte* stream, std::uint64_t stream_bytes,
                      std::uint64_t seed) const;

  /// Deterministic pre-load of the destination regions (the "existing
  /// buffer contents" a reduction combines into). Element k of the
  /// stream-ordered layout gets fill_typed value k. kTransform skips the
  /// fill (plain writes overwrite everything).
  void init_fill(std::byte* buf, std::int64_t shift,
                 std::uint64_t seed) const;

 private:
  ComputePlan(const ddt::TypePtr& type, std::uint64_t count,
              const spin::CostModel& cost, dataloop::PackEngine engine,
              const spin::ComputeConfig& cc, ddt::RegionList regions,
              sim::MetricsRegistry& metrics);

  void handle_window(spin::HandlerArgs& args);
  void handle_transform(spin::HandlerArgs& args);
  void stage_fragment(spin::HandlerArgs& args, std::uint64_t elem_idx,
                      std::uint32_t phase, std::uint32_t len,
                      const std::byte* src, std::int64_t elem_host_off);

  ddt::TypePtr type_;
  std::uint64_t count_;
  const spin::CostModel* cost_;
  spin::ComputeConfig cc_;
  std::uint64_t logical_bytes_ = 0;  // destination bytes
  std::uint64_t stream_bytes_ = 0;   // bytes on the wire

  // The mapping's regions (built once in create(), where they are also
  // the eligibility witness): kAccumulate's region list, kReduce's one
  // pseudo-region, none for kTransform. kAccumulate walks the compiled
  // flat program instead when the pack engine selected it.
  ddt::RegionList regions_;
  std::shared_ptr<const dataloop::FlatProgram> program_;

  // Fragment staging (split elements): keyed by global element index.
  // Values stay stable in assembled_/staging_ until the DMA lands.
  struct Frag {
    std::array<std::byte, 8> bytes{};
    std::uint8_t have = 0;  // bitmask of staged byte positions
    std::int64_t host_off = 0;  // destination offset of the element start
  };
  std::map<std::uint64_t, Frag> frags_;
  std::deque<std::array<std::byte, 8>> assembled_;  // DMA src lifetime
  std::deque<std::vector<std::byte>> staging_;      // dequantized windows

  std::uint64_t descriptor_bytes_ = 0;

  sim::Counter* elems_;      // nic.compute.elems
  sim::Counter* rmw_writes_; // nic.compute.rmw_writes
  sim::Counter* rmw_bytes_;  // nic.compute.rmw_bytes
  sim::Counter* frag_count_; // nic.compute.fragments
};

}  // namespace netddt::offload
