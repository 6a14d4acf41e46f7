#include "dataloop/segment.hpp"

#include <algorithm>
#include <string>

#include "sim/check.hpp"

namespace netddt::dataloop {

Segment::Segment(const CompiledDataloop& loops)
    : loops_(&loops), total_bytes_(loops.total_bytes()) {
  NETDDT_CHECK(loops.depth() <= kMaxDepth,
               "datatype nests deeper than the fixed segment stack: depth " +
                   std::to_string(loops.depth()));
}

void Segment::reset() {
  stream_pos_ = 0;
  instance_ = 0;
  leaf_byte_ = 0;
  depth_ = 0;
}

std::int64_t Segment::child_base(const Cursor& c) const {
  const Dataloop& l = *c.loop;
  switch (l.kind) {
    case LoopKind::kContig:
      return c.base + c.block_idx * l.child_extent;
    case LoopKind::kVector:
      return c.base + c.block_idx * l.stride + c.elem_idx * l.child_extent;
    case LoopKind::kBlockIndexed:
    case LoopKind::kIndexed:
      return c.base + l.displs[static_cast<std::size_t>(c.block_idx)] +
             c.elem_idx * l.child_extent;
    case LoopKind::kStruct: {
      const StructMember& m =
          l.members[static_cast<std::size_t>(c.block_idx)];
      return c.base + m.displ + c.elem_idx * m.child_extent;
    }
  }
  return c.base;
}

void Segment::descend(const Dataloop* loop, std::int64_t base) {
  for (;;) {
    NETDDT_CHECK(depth_ < kMaxDepth,
                 "dataloop descent overflows the cursor stack");
    NETDDT_CHECK(loop != nullptr, "descending into a null dataloop child");
    Cursor& c = stack_[depth_++];
    c.loop = loop;
    c.base = base;
    c.block_idx = 0;
    c.elem_idx = 0;
    if (loop->leaf) return;
    NETDDT_CHECK(loop->kind != LoopKind::kStruct || !loop->members.empty(),
                 "non-leaf struct dataloop with no members");
    const Dataloop* next = loop->kind == LoopKind::kStruct
                               ? loop->members.front().child
                               : loop->child;
    base = child_base(c);
    loop = next;
  }
}

bool Segment::ensure_leaf() {
  if (depth_ > 0) return true;
  if (instance_ >= loops_->count()) return false;
  descend(&loops_->root(), static_cast<std::int64_t>(instance_) *
                               loops_->root_extent());
  return true;
}

void Segment::pop_and_advance() {
  --depth_;  // drop the exhausted leaf cursor
  while (depth_ > 0) {
    Cursor& c = stack_[depth_ - 1];
    const Dataloop& l = *c.loop;
    bool valid = false;
    switch (l.kind) {
      case LoopKind::kContig:
        ++c.block_idx;
        valid = c.block_idx < l.count;
        break;
      case LoopKind::kVector:
        if (++c.elem_idx == l.blocklen) {
          c.elem_idx = 0;
          ++c.block_idx;
        }
        valid = c.block_idx < l.count;
        break;
      case LoopKind::kBlockIndexed:
        if (++c.elem_idx == l.blocklen) {
          c.elem_idx = 0;
          ++c.block_idx;
        }
        valid = c.block_idx < static_cast<std::int64_t>(l.displs.size());
        break;
      case LoopKind::kIndexed:
        if (++c.elem_idx ==
            l.blocklens[static_cast<std::size_t>(c.block_idx)]) {
          c.elem_idx = 0;
          ++c.block_idx;
        }
        valid = c.block_idx < static_cast<std::int64_t>(l.displs.size());
        break;
      case LoopKind::kStruct:
        if (++c.elem_idx ==
            l.members[static_cast<std::size_t>(c.block_idx)].blocklen) {
          c.elem_idx = 0;
          ++c.block_idx;
        }
        valid = c.block_idx < static_cast<std::int64_t>(l.members.size());
        break;
    }
    if (valid) {
      const Dataloop* next =
          l.kind == LoopKind::kStruct
              ? l.members[static_cast<std::size_t>(c.block_idx)].child
              : l.child;
      descend(next, child_base(c));
      return;
    }
    --depth_;
  }
  // Whole instance consumed.
  ++instance_;
}

void Segment::advance_stream(std::uint64_t limit, const RegionEmit* emit,
                             const TrainEmit* train, ProcessStats& stats) {
  NETDDT_CHECK(limit <= total_bytes_,
               "window limit " + std::to_string(limit) +
                   " past the packed stream end " +
                   std::to_string(total_bytes_));
  while (stream_pos_ < limit) {
    sim::check::context().stream_offset =
        static_cast<std::int64_t>(stream_pos_);
    const bool have = ensure_leaf();
    NETDDT_CHECK(have, "dataloop walk exhausted " +
                           std::to_string(stream_pos_) +
                           " bytes into a " + std::to_string(total_bytes_) +
                           "-byte stream, " + std::to_string(limit - stream_pos_) +
                           " bytes short of the window limit");
    Cursor& top = stack_[depth_ - 1];
    const Dataloop& leaf = *top.loop;

    if (emit == nullptr && leaf_byte_ == 0) {
      // Catch-up fast paths: skip whole blocks arithmetically instead of
      // iterating them (the paper's "modified binary search", Sec 3.2.3).
      if (leaf.kind == LoopKind::kVector) {
        const std::uint64_t want = limit - stream_pos_;
        const auto skippable = std::min<std::int64_t>(
            leaf.count - top.block_idx,
            static_cast<std::int64_t>(want / leaf.block_bytes));
        if (skippable > 0) {
          top.block_idx += skippable;
          stream_pos_ +=
              static_cast<std::uint64_t>(skippable) * leaf.block_bytes;
          stats.catchup_bytes +=
              static_cast<std::uint64_t>(skippable) * leaf.block_bytes;
          stats.catchup_blocks += static_cast<std::uint64_t>(skippable);
          if (top.block_idx == leaf.count) {
            pop_and_advance();
          }
          continue;
        }
      } else if (leaf.kind == LoopKind::kIndexed) {
        // Stream offset of this loop instance's first byte.
        const std::uint64_t loop_start =
            stream_pos_ -
            leaf.stream_prefix[static_cast<std::size_t>(top.block_idx)];
        const std::uint64_t local_limit =
            std::min<std::uint64_t>(limit - loop_start, leaf.size);
        // First block whose prefix exceeds the local target position.
        const auto it = std::upper_bound(leaf.stream_prefix.begin(),
                                         leaf.stream_prefix.end(),
                                         local_limit);
        const auto target_block = static_cast<std::int64_t>(
            std::distance(leaf.stream_prefix.begin(), it) - 1);
        if (target_block > top.block_idx) {
          const std::uint64_t skipped =
              leaf.stream_prefix[static_cast<std::size_t>(target_block)] -
              leaf.stream_prefix[static_cast<std::size_t>(top.block_idx)];
          stats.catchup_bytes += skipped;
          stats.catchup_blocks +=
              static_cast<std::uint64_t>(target_block - top.block_idx);
          stream_pos_ += skipped;
          top.block_idx = target_block;
          if (top.block_idx ==
              static_cast<std::int64_t>(leaf.displs.size())) {
            pop_and_advance();
          }
          continue;
        }
      }
    }

    if (train != nullptr && leaf_byte_ == 0 &&
        leaf.kind == LoopKind::kVector && leaf.block_bytes > 0) {
      // Whole blocks of a vector leaf: one train, not one region each.
      const auto blocks = static_cast<std::uint64_t>(std::min<std::int64_t>(
          leaf.count - top.block_idx,
          static_cast<std::int64_t>((limit - stream_pos_) /
                                    leaf.block_bytes)));
      if (blocks > 0) {
        (*train)(top.base + leaf.leaf_block_offset(top.block_idx),
                 leaf.stride, leaf.block_bytes, blocks);
        stats.regions_emitted += blocks;
        stream_pos_ += blocks * leaf.block_bytes;
        top.block_idx += static_cast<std::int64_t>(blocks);
        if (top.block_idx == leaf.count) pop_and_advance();
        continue;
      }
    }

    const std::uint64_t bytes = leaf.leaf_block_bytes(top.block_idx);
    const std::int64_t offset =
        top.base + leaf.leaf_block_offset(top.block_idx);
    NETDDT_CHECK(leaf_byte_ < bytes || (bytes == 0 && leaf_byte_ == 0),
                 "cursor rests past the end of a leaf block");
    const std::uint64_t avail = bytes - leaf_byte_;
    const std::uint64_t take =
        std::min<std::uint64_t>(avail, limit - stream_pos_);
    NETDDT_CHECK(take > 0,
                 "zero-byte leaf block inside a non-empty stream would "
                 "stall the walk");
    if (emit != nullptr) {
      (*emit)(offset + static_cast<std::int64_t>(leaf_byte_), take);
      ++stats.regions_emitted;
    } else {
      stats.catchup_bytes += take;
      if (take == avail) ++stats.catchup_blocks;
    }
    stream_pos_ += take;
    leaf_byte_ += take;
    if (leaf_byte_ == bytes) {
      leaf_byte_ = 0;
      if (++top.block_idx == leaf.block_count()) {
        pop_and_advance();
      }
    }
  }
}

ProcessStats Segment::process(std::uint64_t first, std::uint64_t last,
                              const RegionEmit& emit, const TrainEmit& train) {
  NETDDT_CHECK(first <= last, "inverted stream window [" +
                                  std::to_string(first) + ", " +
                                  std::to_string(last) + ")");
  NETDDT_CHECK(last <= total_bytes_,
               "stream window [" + std::to_string(first) + ", " +
                   std::to_string(last) + ") past the message end " +
                   std::to_string(total_bytes_));
  ProcessStats stats;
  if (first < stream_pos_) {
    // The window starts before our position: rewind entirely (MPITypes
    // segments cannot step backwards), then catch up from zero.
    reset();
    stats.reset = true;
  }
  if (first > stream_pos_) {
    advance_stream(first, nullptr, nullptr, stats);
  }
  advance_stream(last, &emit, train ? &train : nullptr, stats);
  return stats;
}

ProcessStats Segment::advance_to(std::uint64_t pos) {
  ProcessStats stats;
  if (pos < stream_pos_) {
    reset();
    stats.reset = true;
  }
  advance_stream(pos, nullptr, nullptr, stats);
  return stats;
}

CheckpointTable::CheckpointTable(const CompiledDataloop& loops,
                                 std::uint64_t interval)
    : interval_(interval) {
  Segment seg(loops);
  table_.push_back(Checkpoint{0, seg});
  if (interval == 0) return;
  for (std::uint64_t pos = interval; pos < loops.total_bytes();
       pos += interval) {
    seg.advance_to(pos);
    table_.push_back(Checkpoint{pos, seg});
  }
}

const Checkpoint& CheckpointTable::closest(std::uint64_t pos) const {
  // Last checkpoint with stream_pos <= pos.
  auto it = std::upper_bound(
      table_.begin(), table_.end(), pos,
      [](std::uint64_t p, const Checkpoint& c) { return p < c.stream_pos; });
  NETDDT_CHECK(it != table_.begin(),
               "no checkpoint at or before stream position " +
                   std::to_string(pos));
  return *std::prev(it);
}

}  // namespace netddt::dataloop
