#include "spin/nic_memory.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace netddt::spin {

void NicMemory::enable_eviction(EvictionCallback cb) {
  eviction_ = true;
  on_evict_ = std::move(cb);
  if (blocks_metric_ == nullptr) {
    blocks_metric_ = &metrics_->gauge("nic.mem.peak_blocks");
    blocks_metric_->set(static_cast<std::int64_t>(blocks_.size()));
  }
}

void NicMemory::note_blocks_changed() {
  peak_blocks_ = std::max(peak_blocks_, blocks_.size());
  if (blocks_metric_ != nullptr) {
    blocks_metric_->set(static_cast<std::int64_t>(blocks_.size()));
  }
}

NicMemory::Handle NicMemory::alloc(std::uint64_t bytes, std::string tag,
                                   const AllocOptions& options) {
  if (bytes > capacity_ - used()) {
    // Try to make room; a request beyond total capacity can never fit,
    // so do not evict the whole scratchpad on its behalf.
    bool made_room = bytes <= capacity_;
    while (made_room && bytes > capacity_ - used()) {
      made_room = evict_one(options);
    }
    if (bytes > capacity_ - used()) {
      alloc_failures_->add(1);
      if (eviction_) {
        ++admission_rejects_;
        if (rejects_metric_ == nullptr) {
          rejects_metric_ = &metrics_->counter("nic.mem.admission_rejects");
        }
        rejects_metric_->add(1);
      }
      return kInvalid;
    }
  }
  const Handle h = next_++;
  Block block;
  block.bytes = bytes;
  block.tag = std::move(tag);
  block.priority = options.priority;
  block.evictable = options.evictable;
  block.pinned = options.pinned;
  block.last_touch = ++touch_clock_;
  blocks_.emplace(h, std::move(block));
  used_->add(static_cast<std::int64_t>(bytes));
  allocs_->add(1);
  if (bytes == 0) {
    ++zero_byte_allocs_;
    if (zero_metric_ == nullptr) {
      zero_metric_ = &metrics_->counter("nic.mem.zero_byte_allocs");
    }
    zero_metric_->add(1);
  }
  note_blocks_changed();
  return h;
}

bool NicMemory::evict_one(const AllocOptions& options) {
  if (!eviction_) return false;
  // last_touch stamps are unique across live blocks (one clock, bumped
  // on every alloc and touch), so the victim does not depend on the
  // map's iteration order.
  Handle victim = kInvalid;
  std::uint64_t oldest = 0;
  for (const auto& [h, b] : blocks_) {
    if (!b.evictable || b.pinned || b.priority > options.priority) continue;
    if (victim == kInvalid || b.last_touch < oldest) {
      victim = h;
      oldest = b.last_touch;
    }
  }
  if (victim == kInvalid) return false;
  release(victim, /*evicted=*/true);
  return true;
}

void NicMemory::release(Handle h, bool evicted) {
  const auto it = blocks_.find(h);
  NETDDT_CHECK(it != blocks_.end(),
               "double free of NIC memory handle " + std::to_string(h));
  if (it == blocks_.end()) return;
  const std::string tag = std::move(it->second.tag);
  used_->sub(static_cast<std::int64_t>(it->second.bytes));
  frees_->add(1);
  blocks_.erase(it);
  note_blocks_changed();
  if (evicted) {
    ++evictions_;
    if (evictions_metric_ == nullptr) {
      evictions_metric_ = &metrics_->counter("nic.mem.evictions");
    }
    evictions_metric_->add(1);
    if (on_evict_) on_evict_(h, tag);
  }
}

void NicMemory::free(Handle h) {
  if (h == kInvalid) return;
  release(h, /*evicted=*/false);
}

void NicMemory::touch(Handle h) {
  const auto it = blocks_.find(h);
  NETDDT_CHECK(it != blocks_.end(),
               "touch of unknown NIC memory handle " + std::to_string(h));
  if (it == blocks_.end()) return;
  it->second.last_touch = ++touch_clock_;
}

void NicMemory::pin(Handle h) {
  const auto it = blocks_.find(h);
  NETDDT_CHECK(it != blocks_.end(),
               "pin of unknown NIC memory handle " + std::to_string(h));
  if (it == blocks_.end()) return;
  it->second.pinned = true;
}

void NicMemory::unpin(Handle h) {
  const auto it = blocks_.find(h);
  NETDDT_CHECK(it != blocks_.end(),
               "unpin of unknown NIC memory handle " + std::to_string(h));
  if (it == blocks_.end()) return;
  it->second.pinned = false;
}

bool NicMemory::is_pinned(Handle h) const {
  const auto it = blocks_.find(h);
  return it != blocks_.end() && it->second.pinned;
}

}  // namespace netddt::spin
