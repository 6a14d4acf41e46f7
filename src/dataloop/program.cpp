#include "dataloop/program.hpp"

#include <algorithm>
#include <cstring>

#include "dataloop/segment.hpp"

namespace netddt::dataloop {

std::string_view pack_engine_name(PackEngine engine) {
  switch (engine) {
    case PackEngine::kInterpreter:
      return "interpreter";
    case PackEngine::kProgram:
      return "program";
  }
  return "interpreter";
}

std::optional<PackEngine> parse_pack_engine(std::string_view name) {
  if (name == "interpreter" || name == "segment") {
    return PackEngine::kInterpreter;
  }
  if (name == "program" || name == "flat") return PackEngine::kProgram;
  return std::nullopt;
}

namespace {

// One fused contiguous run, the unit the stride classifier consumes.
struct Run {
  std::int64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t stream_off = 0;
};

// Streaming lowering pipeline: raw leaf runs from a Segment walk flow
// through peephole fusion (adjacent-in-buffer runs merge — the packed
// stream is always dense, so stream adjacency is implicit), then a
// stride classifier that collapses equal-size constant-delta trains
// into kStride ops, batching the irregular remainder into kGather
// tables. Nothing is materialized per leaf run, so a million-block
// vector costs O(1) builder memory on its way to a single op.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(const ProgramLimits& limits) : limits_(limits) {}

  void leaf(std::int64_t offset, std::uint64_t size) {
    ++leaf_runs_;
    const std::uint64_t at = stream_pos_;
    stream_pos_ += size;
    if (failed_ || size == 0) return;
    if (have_cur_ &&
        cur_.offset + static_cast<std::int64_t>(cur_.bytes) == offset) {
      cur_.bytes += size;
      return;
    }
    if (have_cur_) classify(cur_);
    cur_ = Run{offset, size, at};
    have_cur_ = true;
  }

  void finalize() {
    if (have_cur_) classify(cur_);
    have_cur_ = false;
    close_train();
    flush_pending();
  }

  bool failed() const { return failed_; }
  std::uint64_t leaf_runs() const { return leaf_runs_; }
  std::uint64_t fused_runs() const { return fused_runs_; }
  std::vector<CopyOp> take_ops() { return std::move(ops_); }
  std::vector<GatherEntry> take_table() { return std::move(table_); }

 private:
  void classify(const Run& r) {
    ++fused_runs_;
    feed(r);
  }

  void feed(const Run& r) {
    if (train_count_ == 0) {
      start_train(r);
      return;
    }
    if (r.bytes == block_bytes_) {
      if (train_count_ == 1) {
        stride_ = r.offset - last_off_;
        accept(r);
        return;
      }
      if (r.offset - last_off_ == stride_) {
        accept(r);
        return;
      }
    }
    close_train();
    start_train(r);
  }

  void start_train(const Run& r) {
    tentative_.clear();
    tentative_.push_back(r);
    train_count_ = 1;
    promoted_ = false;
    block_bytes_ = r.bytes;
    first_off_ = r.offset;
    first_stream_ = r.stream_off;
    last_off_ = r.offset;
  }

  void accept(const Run& r) {
    ++train_count_;
    last_off_ = r.offset;
    if (promoted_) return;
    tentative_.push_back(r);
    if (train_count_ >= limits_.min_stride_run) {
      promoted_ = true;
      tentative_.clear();
    }
  }

  void close_train() {
    if (train_count_ == 0) return;
    if (promoted_) {
      flush_pending();
      CopyOp op;
      op.kind = CopyOpKind::kStride;
      op.count = static_cast<std::uint32_t>(train_count_);
      op.stream_off = first_stream_;
      op.bytes = train_count_ * block_bytes_;
      op.offset = first_off_;
      op.stride = stride_;
      op.block_bytes = block_bytes_;
      push_op(op);
    } else {
      for (const Run& t : tentative_) push_pending(t);
    }
    tentative_.clear();
    train_count_ = 0;
    promoted_ = false;
  }

  void push_pending(const Run& r) {
    if (pending_.size() >= limits_.max_table_entries) {
      failed_ = true;
      return;
    }
    pending_.push_back(r);
  }

  void flush_pending() {
    if (pending_.empty() || failed_) return;
    if (pending_.size() == 1) {
      CopyOp op;
      op.kind = CopyOpKind::kCopy;
      op.stream_off = pending_[0].stream_off;
      op.bytes = pending_[0].bytes;
      op.offset = pending_[0].offset;
      push_op(op);
    } else {
      const Run& front = pending_.front();
      const Run& back = pending_.back();
      CopyOp op;
      op.kind = CopyOpKind::kGather;
      op.count = static_cast<std::uint32_t>(pending_.size());
      op.first = static_cast<std::uint32_t>(table_.size());
      op.stream_off = front.stream_off;
      op.bytes = back.stream_off + back.bytes - front.stream_off;
      if (table_.size() + pending_.size() > limits_.max_table_entries) {
        failed_ = true;
        pending_.clear();
        return;
      }
      for (const Run& r : pending_) {
        table_.push_back(GatherEntry{r.offset, r.bytes, r.stream_off});
      }
      push_op(op);
    }
    pending_.clear();
  }

  void push_op(const CopyOp& op) {
    if (ops_.size() >= limits_.max_ops) {
      failed_ = true;
      return;
    }
    ops_.push_back(op);
  }

  const ProgramLimits& limits_;
  bool failed_ = false;

  // Peephole fusion state.
  bool have_cur_ = false;
  Run cur_{};
  std::uint64_t stream_pos_ = 0;
  std::uint64_t leaf_runs_ = 0;
  std::uint64_t fused_runs_ = 0;

  // Stride-train state. `tentative_` holds the runs of a candidate
  // train until it reaches min_stride_run (so a failed candidate can
  // be demoted into `pending_`); past that only counters advance.
  std::vector<Run> tentative_;
  std::uint64_t train_count_ = 0;
  bool promoted_ = false;
  std::uint64_t block_bytes_ = 0;
  std::int64_t stride_ = 0;
  std::int64_t first_off_ = 0;
  std::uint64_t first_stream_ = 0;
  std::int64_t last_off_ = 0;

  // Irregular runs awaiting a gather batch.
  std::vector<Run> pending_;

  std::vector<CopyOp> ops_;
  std::vector<GatherEntry> table_;
};

// Byte movers. `kPack` selects direction: pack gathers buffer->stream,
// unpack scatters stream->buffer; everything else is shared.
template <bool kPack>
inline void move_bytes(std::byte* buf, std::byte* st, std::uint64_t n) {
  if (n == 0) return;
  if constexpr (kPack) {
    std::memcpy(st, buf, n);
  } else {
    std::memcpy(buf, st, n);
  }
}

template <bool kPack, std::size_t kBlock>
inline void move_fixed(std::byte* buf, std::byte* st) {
  if constexpr (kPack) {
    std::memcpy(st, buf, kBlock);
  } else {
    std::memcpy(buf, st, kBlock);
  }
}

// Constant-stride train with a compile-time block size: the memcpy of
// kBlock bytes lowers to straight-line SIMD loads/stores, and the 4x
// unroll keeps the address arithmetic off the critical path.
template <bool kPack, std::size_t kBlock>
void stride_run_fixed(std::byte* buf, std::int64_t stride, std::byte* st,
                      std::uint64_t blocks) {
  std::uint64_t i = 0;
  for (; i + 4 <= blocks; i += 4) {
    move_fixed<kPack, kBlock>(buf, st);
    move_fixed<kPack, kBlock>(buf + stride, st + kBlock);
    move_fixed<kPack, kBlock>(buf + 2 * stride, st + 2 * kBlock);
    move_fixed<kPack, kBlock>(buf + 3 * stride, st + 3 * kBlock);
    buf += 4 * stride;
    st += 4 * kBlock;
  }
  for (; i < blocks; ++i) {
    move_fixed<kPack, kBlock>(buf, st);
    buf += stride;
    st += kBlock;
  }
}

template <bool kPack>
void stride_run(std::byte* buf, std::int64_t stride, std::uint64_t block,
                std::byte* st, std::uint64_t blocks) {
  switch (block) {
    case 1:
      return stride_run_fixed<kPack, 1>(buf, stride, st, blocks);
    case 2:
      return stride_run_fixed<kPack, 2>(buf, stride, st, blocks);
    case 4:
      return stride_run_fixed<kPack, 4>(buf, stride, st, blocks);
    case 8:
      return stride_run_fixed<kPack, 8>(buf, stride, st, blocks);
    case 16:
      return stride_run_fixed<kPack, 16>(buf, stride, st, blocks);
    case 32:
      return stride_run_fixed<kPack, 32>(buf, stride, st, blocks);
    case 64:
      return stride_run_fixed<kPack, 64>(buf, stride, st, blocks);
    default:
      for (std::uint64_t i = 0; i < blocks; ++i) {
        move_bytes<kPack>(buf, st, block);
        buf += stride;
        st += block;
      }
  }
}

// Visitor of FlatProgram::walk that moves the bytes: `stream` holds the
// window (stream[0] is stream byte `first`).
template <bool kPack>
struct Mover {
  std::byte* base;
  std::byte* stream;

  void region(std::int64_t off, std::uint64_t at, std::uint64_t len) const {
    move_bytes<kPack>(base + off, stream + at, len);
  }
  void stride(std::int64_t off, std::int64_t stride, std::uint64_t block,
              std::uint64_t at, std::uint64_t blocks) const {
    stride_run<kPack>(base + off, stride, block, stream + at, blocks);
  }
};

// Visitor of FlatProgram::walk that emits one region per block.
struct RegionEmitter {
  const std::function<void(std::int64_t, std::uint64_t)>& fn;

  void region(std::int64_t off, std::uint64_t, std::uint64_t len) const {
    fn(off, len);
  }
  void stride(std::int64_t off, std::int64_t stride, std::uint64_t block,
              std::uint64_t, std::uint64_t blocks) const {
    for (std::uint64_t i = 0; i < blocks; ++i, off += stride) fn(off, block);
  }
};

// Visitor of FlatProgram::walk that passes whole kStride blocks on as
// one train.
struct TrainEmitter {
  const std::function<void(std::int64_t, std::uint64_t)>& fn;
  const std::function<void(std::int64_t, std::int64_t, std::uint64_t,
                           std::uint64_t)>& train;

  void region(std::int64_t off, std::uint64_t, std::uint64_t len) const {
    fn(off, len);
  }
  void stride(std::int64_t off, std::int64_t stride, std::uint64_t block,
              std::uint64_t, std::uint64_t blocks) const {
    if (blocks > 0) train(off, stride, block, blocks);
  }
};

}  // namespace

template <typename Visitor>
void FlatProgram::walk(std::uint64_t first, std::uint64_t last,
                       const Visitor& v) const {
  if (first >= last || instance_bytes_ == 0) return;
  std::uint64_t pos = first;
  while (pos < last) {
    const std::uint64_t inst = pos / instance_bytes_;
    const std::uint64_t ibegin = inst * instance_bytes_;
    const std::uint64_t ifirst = pos - ibegin;
    const std::uint64_t ilast =
        std::min<std::uint64_t>(instance_bytes_, last - ibegin);
    const std::int64_t ioff =
        static_cast<std::int64_t>(inst) * instance_extent_;
    // Window position of this instance's stream byte `ifirst`.
    const std::uint64_t iat = pos - first;

    std::size_t oi = 0;
    if (ifirst != 0) {
      auto it = std::upper_bound(
          ops_.begin(), ops_.end(), ifirst,
          [](std::uint64_t v, const CopyOp& op) { return v < op.stream_off; });
      oi = static_cast<std::size_t>(it - ops_.begin());
      if (oi > 0) --oi;
    }
    for (; oi < ops_.size(); ++oi) {
      const CopyOp& op = ops_[oi];
      if (op.stream_off >= ilast) break;
      const std::uint64_t wf = std::max(ifirst, op.stream_off);
      const std::uint64_t wl = std::min(ilast, op.stream_off + op.bytes);
      if (wf >= wl) continue;
      std::uint64_t at = iat + (wf - ifirst);
      switch (op.kind) {
        case CopyOpKind::kCopy:
          v.region(ioff + op.offset +
                       static_cast<std::int64_t>(wf - op.stream_off),
                   at, wl - wf);
          break;
        case CopyOpKind::kStride: {
          const std::uint64_t rel = wf - op.stream_off;
          std::uint64_t rem = wl - wf;
          const std::uint64_t b = rel / op.block_bytes;
          const std::uint64_t in_block = rel - b * op.block_bytes;
          std::int64_t buf =
              ioff + op.offset + static_cast<std::int64_t>(b) * op.stride;
          if (in_block != 0) {
            const std::uint64_t n =
                std::min(op.block_bytes - in_block, rem);
            v.region(buf + static_cast<std::int64_t>(in_block), at, n);
            at += n;
            rem -= n;
            buf += op.stride;
          }
          const std::uint64_t full = rem / op.block_bytes;
          v.stride(buf, op.stride, op.block_bytes, at, full);
          buf += static_cast<std::int64_t>(full) * op.stride;
          at += full * op.block_bytes;
          rem -= full * op.block_bytes;
          if (rem != 0) v.region(buf, at, rem);
          break;
        }
        case CopyOpKind::kGather: {
          const GatherEntry* e = table_.data() + op.first;
          const GatherEntry* end = e + op.count;
          if (wf > op.stream_off) {
            e = std::upper_bound(e, end, wf,
                                 [](std::uint64_t v, const GatherEntry& g) {
                                   return v < g.stream_off;
                                 });
            if (e != table_.data() + op.first) --e;
          }
          for (; e < end && e->stream_off < wl; ++e) {
            const std::uint64_t ef = std::max(wf, e->stream_off);
            const std::uint64_t el = std::min(wl, e->stream_off + e->bytes);
            if (ef >= el) continue;
            v.region(ioff + e->offset +
                         static_cast<std::int64_t>(ef - e->stream_off),
                     iat + (ef - ifirst), el - ef);
          }
          break;
        }
      }
    }
    pos = ibegin + ilast;
  }
}

void FlatProgram::pack(const std::byte* base, std::uint64_t first,
                       std::uint64_t last, std::byte* out) const {
  walk(first, last, Mover<true>{const_cast<std::byte*>(base), out});
}

void FlatProgram::unpack(const std::byte* in, std::uint64_t first,
                         std::uint64_t last, std::byte* base) const {
  walk(first, last, Mover<false>{base, const_cast<std::byte*>(in)});
}

void FlatProgram::for_each_region(
    std::uint64_t first, std::uint64_t last,
    const std::function<void(std::int64_t, std::uint64_t)>& fn) const {
  walk(first, last, RegionEmitter{fn});
}

void FlatProgram::for_each_train(
    std::uint64_t first, std::uint64_t last,
    const std::function<void(std::int64_t, std::uint64_t)>& fn,
    const std::function<void(std::int64_t, std::int64_t, std::uint64_t,
                             std::uint64_t)>& train) const {
  walk(first, last, TrainEmitter{fn, train});
}

std::shared_ptr<const FlatProgram> compile_program(
    const CompiledDataloop& loops, const ProgramLimits& limits) {
  auto prog = std::make_shared<FlatProgram>();
  prog->instance_bytes_ = loops.root().size;
  prog->instance_extent_ = loops.root_extent();
  prog->count_ = loops.count();
  prog->stats_.bytes = prog->instance_bytes_;
  if (prog->instance_bytes_ == 0) return prog;

  ProgramBuilder builder(limits);
  Segment walk(loops);
  walk.process(0, prog->instance_bytes_,
               [&builder](std::int64_t off, std::uint64_t size) {
                 builder.leaf(off, size);
               });
  builder.finalize();
  if (builder.failed()) return nullptr;

  prog->ops_ = builder.take_ops();
  prog->table_ = builder.take_table();
  prog->search_steps_ = ddt::search_steps(prog->ops_.size() + 1);
  prog->stats_.leaf_runs = builder.leaf_runs();
  prog->stats_.fused_runs = builder.fused_runs();
  prog->stats_.ops = prog->ops_.size();
  prog->stats_.table_entries = prog->table_.size();
  return prog;
}

}  // namespace netddt::dataloop
