#pragma once
// Segment: the partial-progress state of a dataloop walk over a packed
// byte stream (re-implementation of the MPITypes segment, paper Sec 3.2.4
// and Fig 5/6).
//
// The packed message is a byte stream; process(first, last) emits the
// destination regions for stream window [first, last):
//  - if `first` is ahead of the current position, the segment *catches
//    up* (advances without emitting) — the cost HPU-local pays;
//  - if `first` is behind, the segment *resets* to its initial state and
//    catches up from zero — the out-of-order-arrival penalty.
//
// The state is a fixed-size stack of dataloop cursors, so a Segment is
// trivially copyable: copies are the paper's *checkpoints* (RO-CP makes a
// local copy per handler; RW-CP hands each vHPU exclusive ownership of
// one and keeps a master copy to roll back on out-of-order arrival).
//
// Ordering and idempotence contract: process() makes no assumption about
// the order windows arrive in — any permutation of [first, last) windows
// covering the stream produces the same set of (offset, size) regions,
// because the mapping stream-byte -> buffer-byte is a pure function of
// the dataloop. Re-processing a window (duplicate packet delivery, or a
// retransmitted copy on a lossy wire) emits exactly the regions of the
// first pass, so a plain-write rewrite is byte-identical and harmless.
// The only order-dependent quantities are the *costs* (catchup_bytes,
// resets) — never the emitted regions. RW-CP relies on this: rolling the
// master copy back to a checkpoint at or before a stale window and
// catching up re-emits identical regions for bytes that already landed.
// Note the contract covers the *mapping*, not the write: when the
// emitted regions are applied as read-modify-writes (the compute
// families, spin::ExecutionContext::rmw()), re-applying is NOT harmless,
// and the NIC gates duplicate packets on its seen bitmap before the
// handler ever runs (docs/HANDLERS.md "The idempotence contract").

#include <array>
#include <cstdint>
#include <functional>

#include "dataloop/dataloop.hpp"

namespace netddt::dataloop {

/// Receives one destination region: buffer byte offset + length.
using RegionEmit =
    std::function<void(std::int64_t offset, std::uint64_t size)>;

/// Receives a train of `count` whole blocks of one vector leaf: block i
/// is `block` bytes at buffer offset `offset + i * stride`, stream-
/// adjacent to block i - 1. Stands for `count` RegionEmit calls.
using TrainEmit = std::function<void(std::int64_t offset, std::int64_t stride,
                                     std::uint64_t block,
                                     std::uint64_t count)>;

/// Statistics of one process() call, consumed by the offload cost models.
struct ProcessStats {
  std::uint64_t regions_emitted = 0;   // contiguous regions produced
  std::uint64_t catchup_bytes = 0;     // bytes advanced without emitting
  std::uint64_t catchup_blocks = 0;    // whole blocks skipped in catch-up
  bool reset = false;                  // had to rewind to the start
};

class Segment {
 public:
  /// MPITypes uses a fixed 16-deep stack; nesting deeper than this is
  /// rejected at construction.
  static constexpr std::uint32_t kMaxDepth = 16;

  explicit Segment(const CompiledDataloop& loops);

  /// Stream position: bytes fully consumed so far.
  std::uint64_t position() const { return stream_pos_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  bool finished() const { return stream_pos_ == total_bytes_; }

  /// Emit destination regions for the packed-stream window [first, last),
  /// catching up or resetting as needed. Returns per-call statistics.
  /// With a `train` hook, where the cursor rests at the start of a
  /// vector leaf's block, the whole blocks of that leaf inside the
  /// window come as one `train` call instead of one `emit` per block.
  /// Expanding each train into its blocks gives exactly the regions, in
  /// order, and the stats of the walk without the hook.
  ProcessStats process(std::uint64_t first, std::uint64_t last,
                       const RegionEmit& emit, const TrainEmit& train = {});

  /// Advance to `pos` without emitting (checkpoint creation).
  ProcessStats advance_to(std::uint64_t pos);

  /// Rewind to the initial state.
  void reset();

  /// Serialized footprint of the segment state in bytes. Header plus a
  /// fixed 16-entry stack of 36 B cursors = 612 B, matching the MPITypes
  /// segment size the paper reports (Sec 3.2.4).
  static constexpr std::uint64_t kFootprintBytes = 36 + kMaxDepth * 36;

  // Segments are cheap value types: copying one is a checkpoint.
  Segment(const Segment&) = default;
  Segment& operator=(const Segment&) = default;

 private:
  struct Cursor {
    const Dataloop* loop = nullptr;
    std::int64_t base = 0;       // buffer offset of this loop instance
    std::int64_t block_idx = 0;  // block within the loop
    std::int64_t elem_idx = 0;   // child repetition within the block
  };

  // Walk helpers (see segment.cpp for the traversal invariants).
  bool ensure_leaf();
  void descend(const Dataloop* loop, std::int64_t base);
  void pop_and_advance();
  std::int64_t child_base(const Cursor& c) const;
  void advance_stream(std::uint64_t limit, const RegionEmit* emit,
                      const TrainEmit* train, ProcessStats& stats);

  const CompiledDataloop* loops_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t stream_pos_ = 0;
  std::uint64_t instance_ = 0;     // which type instance (count > 1)
  std::uint64_t leaf_byte_ = 0;    // bytes consumed in the current block
  std::uint32_t depth_ = 0;        // live stack entries
  std::array<Cursor, kMaxDepth> stack_{};
};

/// A checkpoint: a segment snapshot taken at a known stream position.
struct Checkpoint {
  std::uint64_t stream_pos = 0;
  Segment state;
};

/// The checkpoint table RO-CP / RW-CP handlers select from: snapshots
/// every `interval` bytes, found by the closest-not-after rule.
class CheckpointTable {
 public:
  /// Progress a fresh segment of `loops` and snapshot every `interval`
  /// bytes (interval 0 means a single checkpoint at position 0).
  CheckpointTable(const CompiledDataloop& loops, std::uint64_t interval);

  std::uint64_t interval() const { return interval_; }
  std::size_t size() const { return table_.size(); }

  /// The closest checkpoint at or before `pos`.
  const Checkpoint& closest(std::uint64_t pos) const;
  const Checkpoint& at(std::size_t i) const { return table_[i]; }

  /// NIC-memory footprint: every checkpoint is one serialized segment.
  std::uint64_t footprint_bytes() const {
    return table_.size() * Segment::kFootprintBytes;
  }

 private:
  std::uint64_t interval_;
  std::vector<Checkpoint> table_;
};

}  // namespace netddt::dataloop
