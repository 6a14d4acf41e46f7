#pragma once
// MPI-integration facade (paper Sec 3.2.6): how a communication library
// drives the offload engine.
//
//  (1) commit(): decide the processing strategy for a datatype
//      (specialized vs general) and build the offloadable state
//      (dataloops, checkpoints) once.
//  (2) post_receive(): allocate NIC memory for the DDT state and append
//      a match entry. If the allocation fails, evict least-recently-used
//      offloaded datatypes (respecting priorities) or fall back to the
//      non-offloaded host unpack path.
//  (3) The receive completes when the NIC posts the unpack-complete
//      event (all DMA writes landed).
//
// Type attributes mirror MPI_Type_set_attr: opt out of offloading, bias
// victim selection, and set the RW-CP epsilon.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "ddt/datatype.hpp"
#include "offload/general.hpp"
#include "offload/specialized.hpp"
#include "offload/strategy.hpp"
#include "spin/nic.hpp"

namespace netddt::offload {

struct TypeAttributes {
  bool allow_offload = true;    // offload this type at all?
  int priority = 0;             // higher survives eviction longer
  double epsilon = 0.2;         // RW-CP scheduling-overhead budget
  bool prefer_specialized = true;
};

class DdtEngine {
 public:
  using TypeHandle = std::uint64_t;

  /// Switches on LRU eviction (the paper's victim selection) in the
  /// NIC's memory with a callback that marks evicted plans non-resident;
  /// the engine must therefore outlive no NicModel it is constructed on
  /// (the destructor detaches the callback; eviction stays on).
  explicit DdtEngine(spin::NicModel& nic);
  ~DdtEngine();
  DdtEngine(const DdtEngine&) = delete;
  DdtEngine& operator=(const DdtEngine&) = delete;

  /// Commit a datatype: normalization + strategy selection happen here;
  /// the type becomes usable in post_receive.
  TypeHandle commit(ddt::TypePtr type, TypeAttributes attrs = {});

  /// Drop a committed type and release any cached NIC state.
  void free_type(TypeHandle handle);

  struct PostResult {
    StrategyKind strategy;       // path actually used
    std::uint64_t nic_bytes;     // NIC memory held for this type
    sim::Time host_setup;        // host work on THIS post (0 when the
                                 // offload state was already cached)
    bool evicted_others = false;
  };

  /// Post a receive for `count` instances at `buffer_offset`, matching
  /// `match_bits`. Builds (or reuses) the offload plan, allocates NIC
  /// memory with LRU eviction, or falls back to host-based unpack.
  PostResult post_receive(TypeHandle handle, std::uint64_t count,
                          std::int64_t buffer_offset, std::uint64_t length,
                          std::uint64_t match_bits);

  /// Pre-post an overflow landing buffer for *unexpected* messages
  /// (paper Sec 3.2.6: offload is impossible before the receive is
  /// posted — the datatype is unknown — so unexpected messages land
  /// packed in a bounce buffer and are host-unpacked when the receive
  /// arrives). Matches any bits; the NIC signals kPutOverflow.
  void post_overflow_buffer(std::int64_t buffer_offset,
                            std::uint64_t bytes);

  // Introspection for tests/examples; backed by the NIC's registry
  // ("offload.evictions" / "offload.host_fallbacks").
  std::size_t cached_plans() const;
  std::uint64_t evictions() const { return evictions_->value(); }
  std::uint64_t host_fallbacks() const { return host_fallbacks_->value(); }

 private:
  struct Committed {
    ddt::TypePtr type;
    TypeAttributes attrs;
    bool specializable = false;
  };
  struct CachedPlan {
    TypeHandle handle = 0;
    std::uint64_t count = 0;
    std::unique_ptr<SpecializedPlan> specialized;
    std::unique_ptr<GeneralPlan> general;
    spin::NicMemory::Handle mem = spin::NicMemory::kInvalid;
    std::uint64_t nic_bytes = 0;
    int priority = 0;
  };

  CachedPlan* find_plan(TypeHandle handle, std::uint64_t count);
  /// Allocate (or reuse) the plan's NIC memory; eviction of colder
  /// plans happens inside NicMemory under the installed policy.
  bool try_alloc(CachedPlan& plan);
  void on_evicted(spin::NicMemory::Handle mem);

  spin::NicModel* nic_;
  std::map<TypeHandle, Committed> types_;
  std::vector<std::unique_ptr<CachedPlan>> plans_;
  TypeHandle next_handle_ = 1;
  sim::Counter* evictions_;
  sim::Counter* host_fallbacks_;
};

}  // namespace netddt::offload
