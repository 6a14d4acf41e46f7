#pragma once
// NIC memory capacity accounting with LRU admission/eviction.
//
// Handler state (dataloops, checkpoints, iovec caches, per-vHPU segments)
// must fit in the NIC's scratchpad. The simulator keeps that state in
// ordinary C++ objects; this class models the *capacity* so strategies
// can fail allocation, fall back, or evict (the MPI facade's LRU victim
// selection, paper Sec 3.2.6), and so benchmarks can report occupancy
// (paper Fig 13b/c). Occupancy and allocation outcomes are published
// under the "nic.mem" metrics scope.
//
// Eviction is off until the block owner switches it on
// (enable_eviction — the MPI facade does). Then an allocation that does
// not fit evicts the least-recently-touched evictable, unpinned block
// whose priority does not exceed the requester's, repeating until the
// request fits or no such block is left. Without it a full scratchpad
// rejects the request. Owners of evictable blocks learn about evictions
// through a callback (handle + tag) so they can drop their side of the
// state (the facade marks the plan non-resident). Blocks carry
// touch/pin lifecycle hooks: touch() refreshes the LRU stamp on reuse,
// pin()/unpin() fence a block against eviction while a message is
// actively using it.
//
// Metrics: the four original metrics (nic.mem.used / allocs /
// alloc_failures / frees) are registered eagerly. nic.mem.evictions,
// nic.mem.zero_byte_allocs, and — once eviction is on —
// nic.mem.admission_rejects and the nic.mem.peak_blocks gauge register
// lazily on the first event that would make them visible, so a NIC
// without the facade publishes none of them.
//
// Zero-byte allocations hold a handle and a tag like any other block.
// They are invisible in byte occupancy by definition, so they are
// counted separately (nic.mem.zero_byte_allocs, zero_byte_allocs()) and
// show up in the block-count occupancy (allocations(), peak_blocks()).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "sim/metrics.hpp"

namespace netddt::spin {

class NicMemory {
 public:
  using Handle = std::uint64_t;
  static constexpr Handle kInvalid = 0;

  struct AllocOptions {
    int priority = 0;      // requester's eviction-priority ceiling
    bool evictable = false;  // may eviction reclaim this block?
    bool pinned = false;     // start fenced against eviction
  };

  /// Publishes under "nic.mem"; nullptr gets a private registry.
  explicit NicMemory(std::uint64_t capacity_bytes,
                     sim::MetricsRegistry* metrics = nullptr)
      : capacity_(capacity_bytes) {
    if (metrics == nullptr) {
      local_metrics_ = std::make_unique<sim::MetricsRegistry>();
      metrics = local_metrics_.get();
    }
    metrics_ = metrics;
    used_ = &metrics->gauge("nic.mem.used");
    allocs_ = &metrics->counter("nic.mem.allocs");
    alloc_failures_ = &metrics->counter("nic.mem.alloc_failures");
    frees_ = &metrics->counter("nic.mem.frees");
  }

  /// Reserve `bytes`; returns kInvalid when it does not fit and
  /// eviction cannot make room.
  Handle alloc(std::uint64_t bytes, std::string tag = {}) {
    return alloc(bytes, std::move(tag), AllocOptions());
  }
  Handle alloc(std::uint64_t bytes, std::string tag,
               const AllocOptions& options);

  /// Release; a double free is a NETDDT_CHECK violation naming the handle.
  void free(Handle h);

  /// Refresh the block's recency stamp (LRU input) — call on every
  /// reuse of cached state.
  void touch(Handle h);
  /// Fence the block against eviction while a message actively uses it.
  void pin(Handle h);
  void unpin(Handle h);
  bool is_pinned(Handle h) const;

  /// Invoked after a block is evicted (it is already gone — do not
  /// free() it). The callback must not call back into alloc().
  using EvictionCallback =
      std::function<void(Handle, const std::string& tag)>;
  /// Switch LRU eviction on (it stays on) and route evictions to `cb`;
  /// an empty `cb` detaches the owner. Registers the
  /// nic.mem.peak_blocks gauge.
  void enable_eviction(EvictionCallback cb);

  std::uint64_t bytes_of(Handle h) const {
    auto it = blocks_.find(h);
    return it == blocks_.end() ? 0 : it->second.bytes;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const {
    return static_cast<std::uint64_t>(used_->value());
  }
  std::uint64_t peak() const {
    return static_cast<std::uint64_t>(used_->peak());
  }
  std::uint64_t available() const { return capacity_ - used(); }
  std::size_t allocations() const { return blocks_.size(); }
  std::size_t peak_blocks() const { return peak_blocks_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t admission_rejects() const { return admission_rejects_; }
  std::uint64_t zero_byte_allocs() const { return zero_byte_allocs_; }

 private:
  struct Block {
    std::uint64_t bytes = 0;
    std::string tag;
    int priority = 0;
    bool evictable = false;
    bool pinned = false;
    std::uint64_t last_touch = 0;
  };

  /// Evict the least-recently-touched block `options` may reclaim.
  /// False when there is none (or eviction is off).
  bool evict_one(const AllocOptions& options);
  void release(Handle h, bool evicted);
  void note_blocks_changed();

  std::uint64_t capacity_;
  Handle next_ = 1;
  std::unordered_map<Handle, Block> blocks_;
  std::uint64_t touch_clock_ = 0;
  std::size_t peak_blocks_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t admission_rejects_ = 0;
  std::uint64_t zero_byte_allocs_ = 0;

  bool eviction_ = false;
  EvictionCallback on_evict_;

  std::unique_ptr<sim::MetricsRegistry> local_metrics_;
  sim::MetricsRegistry* metrics_;
  sim::Gauge* used_;              // nic.mem.used
  sim::Counter* allocs_;          // nic.mem.allocs
  sim::Counter* alloc_failures_;  // nic.mem.alloc_failures
  sim::Counter* frees_;           // nic.mem.frees
  // Lazy (see header comment): absent until the first triggering event.
  sim::Counter* evictions_metric_ = nullptr;   // nic.mem.evictions
  sim::Counter* rejects_metric_ = nullptr;     // nic.mem.admission_rejects
  sim::Counter* zero_metric_ = nullptr;        // nic.mem.zero_byte_allocs
  sim::Gauge* blocks_metric_ = nullptr;        // nic.mem.peak_blocks
};

}  // namespace netddt::spin
