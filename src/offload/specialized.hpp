#pragma once
// Datatype-specialized payload handlers (paper Sec 3.2.3).
//
// A type qualifies for a closed-form handler when (after normalization)
// it compiles to a single leaf dataloop — vector, indexed-block or
// indexed over a gap-free base — which is exactly the paper's "elementary
// or contiguous-of-elementary base type" condition. The handler then
// computes destination offsets directly from the packet's stream offset:
// a division for vector/indexed-block, a binary search over the block-
// size prefix sums for indexed. No inter-packet state exists, so any HPU
// can process any packet with no catch-up and no checkpoints. The vector
// handler works per instance: a head fragment, the instance's whole
// blocks as one constant-stride DMA train (spin::DmaIssuer::train), and
// a tail fragment.
//
// For nested types with no closed form, the plan falls back to a
// *region-list* handler: the host flattens the type into (offset, size)
// lists stored in NIC memory and the handler binary-searches them — the
// paper's hand-written handlers for index/struct types work exactly this
// way ("a modified binary search on these lists that have size linear in
// the number of non-contiguous regions", Sec 3.2.3), trading NIC memory
// linear in the region count for stateless O(gamma + log n) handlers.
// The lists and their one window walk are a ddt::RegionList
// (ddt/region.hpp), the same walker the iovec comparator, the compute
// plan's accumulate mapping and the outbound gather handler use.

// A third mode rides on the compiled flat programs (dataloop/program.hpp):
// with PackEngine::kProgram the handler walks the program's fused copy
// ops (FlatProgram::for_each_train, over the program's one window walk)
// instead of the leaf/region lists — adjacent runs are already merged at
// compile time, so the handler issues one DMA write per fused region
// (a kStride op's whole blocks as one train) and the descriptor is the
// program itself (ops + gather table).

#include <algorithm>
#include <cstdint>
#include <memory>

#include "dataloop/dataloop.hpp"
#include "dataloop/program.hpp"
#include "ddt/datatype.hpp"
#include "spin/handler.hpp"
#include "spin/nic.hpp"

namespace netddt::offload {

class SpecializedPlan {
 public:
  /// Build a specialized plan: closed-form when the (normalized) type is
  /// a single leaf dataloop, region-list otherwise. Returns nullptr only
  /// when `closed_form_only` is set and no closed form exists. With
  /// `engine == PackEngine::kProgram` the handler executes the cached
  /// flat program when one compiled within limits (silently staying on
  /// the interpreter modes otherwise).
  static std::unique_ptr<SpecializedPlan> create(
      const ddt::TypePtr& type, std::uint64_t count,
      const spin::CostModel& cost, bool closed_form_only = true,
      dataloop::PackEngine engine = dataloop::PackEngine::kInterpreter);

  bool closed_form() const { return closed_form_; }
  /// True when the handler executes the compiled flat program.
  bool program_mode() const { return program_ != nullptr; }

  /// Parameter bytes the host copies to NIC memory: the spin_vec_t-style
  /// descriptor for vector, the displacement (and size) lists for the
  /// indexed flavours.
  std::uint64_t descriptor_bytes() const { return descriptor_bytes_; }

  /// Build the execution context (handlers reference this plan; keep it
  /// alive for the NIC's lifetime).
  spin::ExecutionContext context(spin::NicModel& nic);

  const dataloop::CompiledDataloop& loops() const { return *loops_; }

 private:
  SpecializedPlan(const ddt::TypePtr& type, std::uint64_t count,
                  const spin::CostModel& cost, dataloop::PackEngine engine);

  // Shared via the process-wide dataloop cache (dataloop/cache.hpp);
  // also reused by create()'s closed-form probe of the same type.
  std::shared_ptr<const dataloop::CompiledDataloop> loops_;
  // Non-null only in program mode.
  std::shared_ptr<const dataloop::FlatProgram> program_;
  const spin::CostModel* cost_;
  std::uint64_t descriptor_bytes_ = 0;
  bool closed_form_ = true;
  // Region-list mode state (the lists living in NIC memory).
  ddt::RegionList regions_;
};

/// Walk the destination regions of stream window [first, last) of a
/// single-leaf dataloop in closed form. Calls fn(host_offset, len,
/// search_steps) per region, where search_steps is the number of
/// binary-search iterations spent locating the region (0 for arithmetic
/// kinds and for sequential continuation).
void leaf_window(const dataloop::CompiledDataloop& loops,
                 std::uint64_t first, std::uint64_t last,
                 const std::function<void(std::int64_t, std::uint64_t,
                                          std::uint32_t)>& fn);

/// Walk stream window [first, last) of a single vector leaf in closed
/// form, per instance: region(host_offset, len) for a head fragment of a
/// block, train(host_offset, stride, block, count) for the instance's
/// whole blocks in the window, region() for a tail fragment. Expanding
/// each train into its blocks gives exactly leaf_window's regions, in
/// order (a vector never charges search steps).
template <typename Region, typename Train>
void vector_window(const dataloop::Dataloop& leaf, std::int64_t instance_ext,
                   std::uint64_t first, std::uint64_t last,
                   const Region& region, const Train& train) {
  const std::uint64_t block = leaf.block_bytes;
  std::uint64_t pos = first;
  while (pos < last) {
    const std::uint64_t instance = pos / leaf.size;
    const std::uint64_t local = pos - instance * leaf.size;
    const std::uint64_t end = std::min(last, (instance + 1) * leaf.size);
    const std::uint64_t rem = local % block;
    std::int64_t at =
        static_cast<std::int64_t>(instance) * instance_ext +
        static_cast<std::int64_t>(local / block) * leaf.stride;
    if (rem != 0) {
      const std::uint64_t take = std::min(block - rem, end - pos);
      region(at + static_cast<std::int64_t>(rem), take);
      pos += take;
      at += leaf.stride;
    }
    const std::uint64_t whole = (end - pos) / block;
    if (whole > 0) {
      train(at, leaf.stride, block, whole);
      pos += whole * block;
      at += static_cast<std::int64_t>(whole) * leaf.stride;
    }
    if (pos < end) {
      region(at, end - pos);
      pos = end;
    }
  }
}

}  // namespace netddt::offload
