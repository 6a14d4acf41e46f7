#include "offload/specialized.hpp"

#include "dataloop/cache.hpp"

#include <algorithm>
#include <string>

#include "sim/check.hpp"

namespace netddt::offload {

void leaf_window(const dataloop::CompiledDataloop& loops,
                 std::uint64_t first, std::uint64_t last,
                 const std::function<void(std::int64_t, std::uint64_t,
                                          std::uint32_t)>& fn) {
  const dataloop::Dataloop& leaf = loops.root();
  NETDDT_CHECK(leaf.leaf,
               "leaf_window requires a single-leaf dataloop, not one of "
               "depth " +
                   std::to_string(loops.depth()) + " for a " +
                   std::string(loops.type()->kind_name()) + " type");
  const std::uint64_t instance_size = leaf.size;
  const std::int64_t instance_ext = loops.root_extent();

  std::uint64_t pos = first;
  std::int64_t prev_block = -2;  // forces a fresh lookup on entry
  while (pos < last) {
    const std::uint64_t instance = pos / instance_size;
    const std::uint64_t local = pos % instance_size;
    const std::int64_t base =
        static_cast<std::int64_t>(instance) * instance_ext;

    std::int64_t block = 0;
    std::uint64_t block_start = 0;  // stream offset of block within instance
    std::uint32_t steps = 0;
    switch (leaf.kind) {
      case dataloop::LoopKind::kContig:
        block = 0;
        block_start = 0;
        break;
      case dataloop::LoopKind::kVector:
      case dataloop::LoopKind::kBlockIndexed:
        block = static_cast<std::int64_t>(local / leaf.block_bytes);
        block_start = static_cast<std::uint64_t>(block) * leaf.block_bytes;
        break;
      case dataloop::LoopKind::kIndexed: {
        // Sequential continuation is free; a jump costs a binary search
        // (the paper's "modified binary search" on the offset lists).
        const auto it = std::upper_bound(leaf.stream_prefix.begin(),
                                         leaf.stream_prefix.end(), local);
        block = static_cast<std::int64_t>(
                    std::distance(leaf.stream_prefix.begin(), it)) -
                1;
        block_start = leaf.stream_prefix[static_cast<std::size_t>(block)];
        if (block != prev_block + 1) steps = leaf.prefix_search_steps;
        break;
      }
      case dataloop::LoopKind::kStruct:
        NETDDT_CHECK(false, "leaf_window met a leaf dataloop of kind "
                            "struct (kind " +
                                std::to_string(static_cast<int>(leaf.kind)) +
                                "); a struct is never a leaf");
    }
    prev_block = block;

    const std::uint64_t bytes = leaf.leaf_block_bytes(block);
    const std::uint64_t rem = local - block_start;
    const std::int64_t host_off =
        base + leaf.leaf_block_offset(block) + static_cast<std::int64_t>(rem);
    const std::uint64_t take =
        std::min<std::uint64_t>({bytes - rem, last - pos});
    fn(host_off, take, steps);
    pos += take;
  }
}

std::unique_ptr<SpecializedPlan> SpecializedPlan::create(
    const ddt::TypePtr& type, std::uint64_t count,
    const spin::CostModel& cost, bool closed_form_only,
    dataloop::PackEngine engine) {
  auto probe = dataloop::compile_cached(type, count);
  if (!probe->root().leaf && closed_form_only) return nullptr;
  return std::unique_ptr<SpecializedPlan>(
      new SpecializedPlan(type, count, cost, engine));
}

SpecializedPlan::SpecializedPlan(const ddt::TypePtr& type,
                                 std::uint64_t count,
                                 const spin::CostModel& cost,
                                 dataloop::PackEngine engine)
    : loops_(dataloop::compile_cached(type, count)), cost_(&cost) {
  if (engine == dataloop::PackEngine::kProgram) {
    program_ = dataloop::plan_cached(type, count).program;
    if (program_ != nullptr) {
      // The program *is* the NIC-resident descriptor: op array + gather
      // table. Its handler needs no other plan state.
      descriptor_bytes_ = program_->descriptor_bytes();
      closed_form_ = loops_->root().leaf;
      return;
    }
  }
  const dataloop::Dataloop& leaf = loops_->root();
  if (!leaf.leaf) {
    // Region-list fallback: offset + size per region, 16 B entries.
    closed_form_ = false;
    regions_ = type->region_list(count);
    descriptor_bytes_ = 16 + regions_.size() * 16;
    return;
  }
  switch (leaf.kind) {
    case dataloop::LoopKind::kContig:
      descriptor_bytes_ = 16;  // base pointer + length
      break;
    case dataloop::LoopKind::kVector:
      descriptor_bytes_ = 24;  // spin_vec_t: count, block_size, stride
      break;
    case dataloop::LoopKind::kBlockIndexed:
      descriptor_bytes_ = 16 + leaf.displs.size() * 8;
      break;
    case dataloop::LoopKind::kIndexed:
      // Offset list + per-block size (prefix) list.
      descriptor_bytes_ = 16 + leaf.displs.size() * 16;
      break;
    case dataloop::LoopKind::kStruct:
      break;  // unreachable: struct is never a leaf
  }
}

spin::ExecutionContext SpecializedPlan::context(spin::NicModel& nic) {
  (void)nic;
  spin::ExecutionContext ctx;
  ctx.policy = spin::SchedulingPolicy::Default();
  const spin::CostModel& c = *cost_;

  // One block or run costs `step` and is issued when it is charged; a
  // constant-stride train of whole blocks (a kStride op, a vector
  // instance) goes to the DMA engine in one call.
  const sim::Time step = c.h_block_specialized + c.h_dma_issue;
  if (program_ != nullptr) {
    // Flat-program handler: the compile step already fused adjacent
    // runs, so every emitted region becomes exactly one DMA write; the
    // only per-packet lookup is one binary search over the op array to
    // find the resume point.
    ctx.payload = [this, &c, step](spin::HandlerArgs& args) {
      args.meter.charge(spin::Phase::kInit, c.h_init);
      const std::uint64_t first = args.pkt.offset;
      args.meter.charge(spin::Phase::kSetup,
                        program_->search_steps() * sim::ns(8));
      spin::BlockWriter out(args, step);
      program_->for_each_train(
          first, first + args.pkt.payload_bytes,
          [&](std::int64_t off, std::uint64_t len) { out.region(off, len); },
          [&](std::int64_t off, std::int64_t stride, std::uint64_t block,
              std::uint64_t count) { out.train(off, stride, block, count); });
    };
  } else if (closed_form_ &&
             loops_->root().kind == dataloop::LoopKind::kVector) {
    ctx.payload = [this, &c, step](spin::HandlerArgs& args) {
      args.meter.charge(spin::Phase::kInit, c.h_init);
      const std::uint64_t first = args.pkt.offset;
      spin::BlockWriter out(args, step);
      vector_window(
          loops_->root(), loops_->root_extent(), first,
          first + args.pkt.payload_bytes,
          [&](std::int64_t off, std::uint64_t len) { out.region(off, len); },
          [&](std::int64_t off, std::int64_t stride, std::uint64_t block,
              std::uint64_t count) { out.train(off, stride, block, count); });
    };
  } else if (closed_form_) {
    ctx.payload = [this, &c, step](spin::HandlerArgs& args) {
      args.meter.charge(spin::Phase::kInit, c.h_init);
      const std::uint64_t first = args.pkt.offset;
      spin::BlockWriter out(args, step);
      leaf_window(*loops_, first, first + args.pkt.payload_bytes,
                  [&](std::int64_t off, std::uint64_t len,
                      std::uint32_t search_steps) {
                    args.meter.charge(spin::Phase::kSetup,
                                      search_steps * sim::ns(8));
                    out.region(off, len);
                  });
    };
  } else {
    // Region-list handler: binary-search the packet start, then walk
    // entries sequentially.
    ctx.payload = [this, &c, step](spin::HandlerArgs& args) {
      args.meter.charge(spin::Phase::kInit, c.h_init);
      args.meter.charge(spin::Phase::kSetup,
                        regions_.search_steps() * sim::ns(8));
      const std::uint64_t first = args.pkt.offset;
      spin::BlockWriter out(args, step);
      regions_.walk(first, first + args.pkt.payload_bytes,
                    [&](std::size_t, std::int64_t off, std::uint64_t,
                        std::uint64_t len) { out.region(off, len); });
    };
  }

  ctx.completion = [&c](spin::HandlerArgs& args) {
    args.meter.charge(spin::Phase::kProcessing, c.h_complete);
    // Zero-byte signalled DMA: tells the host all data is unpacked.
    args.dma.write(args.meter.total(), 0, {}, /*signal_event=*/true);
  };
  return ctx;
}

}  // namespace netddt::offload
