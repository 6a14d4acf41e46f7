#pragma once
// Flat pack/unpack programs: a datatype compiled once into a linear
// sequence of fused copy ops, executed without walking the dataloop
// tree. This is the "specialized handlers beat interpreted walks" idea
// of the paper applied to the byte-moving path itself: where a Segment
// re-derives every leaf offset through a cursor stack, a FlatProgram
// has already resolved the layout into
//
//   kCopy    one contiguous run (adjacent leaf runs peephole-fused),
//   kStride  a constant-stride train of equal-size blocks, executed by
//            a SIMD-width-dispatched unrolled inner loop,
//   kGather  a batch of irregular small runs indexed through a shared
//            displacement table.
//
// Ops are sorted by stream offset and carry per-op stream prefixes, so
// execution is resumable at arbitrary stream positions: any window
// [first, last) of the packed stream can be packed or unpacked
// independently, in any order — the same contract Segment::process
// gives, which is what lets the program drop in behind the
// Packer/Unpacker chunked-streaming interface, the sender pack path
// and the specialized-strategy functional copy.
//
// All offsets are instance-relative (instance i of a count-N datatype
// adds i * instance_extent() to every buffer offset), so one compiled
// program serves any receive count and any buffer base — including
// negative leaf offsets from negative-lb resized types, which is why
// the executor takes raw base pointers rather than spans.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "dataloop/dataloop.hpp"

namespace netddt::dataloop {

/// Which engine moves bytes on the functional pack/unpack paths.
/// kInterpreter is the historical Segment walk (the default — output
/// and deterministic JSON are unchanged); kProgram executes the
/// compiled flat program (falling back to the interpreter for types
/// whose program exceeds ProgramLimits).
enum class PackEngine : std::uint8_t { kInterpreter, kProgram };

std::string_view pack_engine_name(PackEngine engine);
std::optional<PackEngine> parse_pack_engine(std::string_view name);

enum class CopyOpKind : std::uint8_t { kCopy, kStride, kGather };

/// One fused copy instruction. `stream_off` / `bytes` locate the op in
/// the packed stream of a single instance; which other fields are
/// meaningful depends on `kind`:
///   kCopy    offset (buffer offset of the run)
///   kStride  offset (block 0), stride, block_bytes, count (blocks)
///   kGather  first, count (window into the program's gather table)
struct CopyOp {
  CopyOpKind kind = CopyOpKind::kCopy;
  std::uint32_t count = 0;        // kStride: blocks; kGather: entries
  std::uint32_t first = 0;        // kGather: first gather-table entry
  std::uint64_t stream_off = 0;   // stream offset within the instance
  std::uint64_t bytes = 0;        // stream bytes this op covers
  std::int64_t offset = 0;        // buffer offset (kCopy / kStride)
  std::int64_t stride = 0;        // kStride: byte distance block->block
  std::uint64_t block_bytes = 0;  // kStride: bytes per block
};

/// Gather-table entry: one irregular contiguous run.
struct GatherEntry {
  std::int64_t offset = 0;       // buffer offset
  std::uint64_t bytes = 0;       // run length
  std::uint64_t stream_off = 0;  // stream offset within the instance
};

/// Shape statistics of one compiled program (per instance), surfaced
/// through the metrics registry and the pack_kernels/ddt_help benches.
struct ProgramStats {
  std::uint64_t leaf_runs = 0;      // runs the interpreter would emit
  std::uint64_t fused_runs = 0;     // runs left after peephole fusion
  std::uint64_t ops = 0;            // final CopyOp count
  std::uint64_t table_entries = 0;  // gather-table size
  std::uint64_t bytes = 0;          // packed bytes per instance

  /// Fraction of per-leaf dispatch work the program eliminated:
  /// 1 - ops / leaf_runs (0 for empty programs).
  double fused_run_ratio() const {
    return leaf_runs == 0
               ? 0.0
               : 1.0 - static_cast<double>(ops) /
                           static_cast<double>(leaf_runs);
  }
  double bytes_per_op() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(bytes) / static_cast<double>(ops);
  }
};

/// Compilation guard rails: a program whose op + table footprint would
/// exceed `max_ops`/`max_table_entries` is not built (compile_program
/// returns null and callers stay on the interpreter). `min_stride_run`
/// is the shortest equal-size, equal-stride train worth a kStride op;
/// shorter trains fall into gather batches.
struct ProgramLimits {
  std::uint64_t max_ops = 1u << 20;
  std::uint64_t max_table_entries = 1u << 21;
  std::uint32_t min_stride_run = 4;
};

class FlatProgram {
 public:
  const std::vector<CopyOp>& ops() const { return ops_; }
  const std::vector<GatherEntry>& table() const { return table_; }
  const ProgramStats& stats() const { return stats_; }

  std::uint64_t instance_bytes() const { return instance_bytes_; }
  std::int64_t instance_extent() const { return instance_extent_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t total_bytes() const { return instance_bytes_ * count_; }

  /// Binary-search iterations a handler charges to find a window's
  /// resume op: ddt::search_steps(ops().size() + 1).
  std::uint32_t search_steps() const { return search_steps_; }

  /// Modeled NIC-memory footprint of the program (op array + gather
  /// table + header), the descriptor-bytes analogue of
  /// Dataloop::serialized_bytes().
  std::uint64_t descriptor_bytes() const {
    return 16 + ops_.size() * 24 + table_.size() * 16;
  }

  /// Gather stream window [first, last) from the layout at `base` into
  /// `out` (out[0] receives stream byte `first`). Windows may be
  /// executed in any order and may split anywhere, including inside a
  /// block.
  void pack(const std::byte* base, std::uint64_t first, std::uint64_t last,
            std::byte* out) const;

  /// Scatter stream window [first, last) from `in` (in[0] is stream
  /// byte `first`) into the layout at `base`. Re-execution of a window
  /// is idempotent (pure function of the program).
  void unpack(const std::byte* in, std::uint64_t first, std::uint64_t last,
              std::byte* base) const;

  /// Emit the fused contiguous regions of window [first, last) in
  /// stream order: fn(buffer_offset, run_bytes). This is the program
  /// analogue of Segment::process / leaf_window, with adjacent leaf
  /// runs already merged — the specialized program handler issues one
  /// DMA write per emitted region.
  void for_each_region(
      std::uint64_t first, std::uint64_t last,
      const std::function<void(std::int64_t, std::uint64_t)>& fn) const;

  /// The same walk, with the whole blocks of a kStride op inside the
  /// window as one call: train(buffer_offset, stride, block, count)
  /// stands for `count` regions fn(buffer_offset + i * stride, block).
  /// Partial blocks and kCopy/kGather runs still come through `fn`.
  /// Expanding every train gives exactly for_each_region's sequence.
  void for_each_train(
      std::uint64_t first, std::uint64_t last,
      const std::function<void(std::int64_t, std::uint64_t)>& fn,
      const std::function<void(std::int64_t, std::int64_t, std::uint64_t,
                               std::uint64_t)>& train) const;

 private:
  friend std::shared_ptr<const FlatProgram> compile_program(
      const CompiledDataloop&, const ProgramLimits&);

  // The one window walk behind pack, unpack and the two emitters: the
  // instance loop, the op resume search and the three op kinds, mapped
  // onto two hooks of `v`, in stream order:
  //   v.region(buf_off, at, len)                     one contiguous run
  //   v.stride(buf_off, stride, block, at, blocks)   whole kStride blocks
  // buf_off is the buffer offset (instance shift included), at the
  // run's position in the window (0 is stream byte `first`).
  template <typename Visitor>
  void walk(std::uint64_t first, std::uint64_t last, const Visitor& v) const;

  std::vector<CopyOp> ops_;
  std::vector<GatherEntry> table_;
  ProgramStats stats_;
  std::uint64_t instance_bytes_ = 0;
  std::int64_t instance_extent_ = 0;
  std::uint64_t count_ = 1;
  std::uint32_t search_steps_ = 0;
};

/// Lower `loops` into a flat program: walk one instance's leaf runs,
/// peephole-fuse adjacent contiguous runs, collapse equal-size
/// constant-stride trains into kStride ops and batch the irregular
/// remainder into gather tables. Returns null when the program would
/// exceed `limits` (callers fall back to the Segment interpreter).
std::shared_ptr<const FlatProgram> compile_program(
    const CompiledDataloop& loops, const ProgramLimits& limits = {});

}  // namespace netddt::dataloop
