#include "offload/compute_plan.hpp"

#include <algorithm>
#include <cstring>

#include "dataloop/cache.hpp"
#include "offload/host_model.hpp"
#include "sim/check.hpp"

namespace netddt::offload {

using spin::ComputeConfig;
using spin::ElemType;
using spin::HandlerFamily;
using spin::ReduceOp;

namespace {

// Decorrelates the destination pre-load from the stream payload (both
// are fill_typed patterns of the same run seed).
constexpr std::uint64_t kInitSeedSalt = 0x517cc1b727220a95ull;

const char* family_label(HandlerFamily f) {
  switch (f) {
    case HandlerFamily::kReduce: return "compute-reduce";
    case HandlerFamily::kTransform: return "compute-transform";
    case HandlerFamily::kAccumulate: return "compute-accumulate";
    case HandlerFamily::kScatter: break;
  }
  return "compute";
}

// The regions a plan of family `f` walks: the type's region list for
// kAccumulate, one pseudo-region over the whole target for kReduce (its
// identity mapping, which the destination pre-load and the host
// reference walk too), none for kTransform.
ddt::RegionList plan_regions(const ddt::Datatype& type, std::uint64_t count,
                             HandlerFamily f) {
  switch (f) {
    case HandlerFamily::kReduce:
      return ddt::RegionList({ddt::Region{0, type.size() * count}});
    case HandlerFamily::kTransform:
      return ddt::RegionList{};
    case HandlerFamily::kAccumulate:
    case HandlerFamily::kScatter:
      break;
  }
  return type.region_list(count);
}

// True iff every region holds whole elements, so no element spans two
// regions (kTransform: the target holds whole host elements). The
// regions sum to the target, so that one divides as well.
bool whole_elements(const ddt::RegionList& regions, std::uint64_t logical,
                    const ComputeConfig& cc) {
  if (cc.family == HandlerFamily::kTransform) {
    return logical % spin::quant_host_elem(cc.quant) == 0;
  }
  const std::size_t e = spin::elem_size(cc.elem);
  return std::all_of(regions.regions().begin(), regions.regions().end(),
                     [e](const ddt::Region& r) { return r.size % e == 0; });
}

}  // namespace

HostComputeEstimate host_compute_estimate(const ddt::TypePtr& type,
                                          std::uint64_t count,
                                          const ComputeConfig& cc,
                                          const spin::CostModel& cost) {
  HostComputeEstimate est;
  const std::uint64_t logical = type->size() * count;
  const std::size_t e = cc.family == HandlerFamily::kTransform
                            ? spin::quant_host_elem(cc.quant)
                            : spin::elem_size(cc.elem);
  // Receive-into-bounce plus the scatter walk: identical to the unpack
  // baseline (for kReduce/kTransform the type is effectively contiguous,
  // so this is one big cold-cache copy).
  const auto base = host_unpack_estimate(*type, count, cost);
  est.time = base.unpack_time;
  est.traffic_bytes = base.traffic_bytes;
  // Per-element ALU pass (reduce lanes / dequantize widening).
  est.time += cost.host_reduce_per_elem *
              static_cast<sim::Time>(logical / (e == 0 ? 1 : e));
  // RMW families read the destination back before combining: one more
  // pass of main-memory traffic at cold-cache bandwidth.
  const bool rmw = cc.family == HandlerFamily::kReduce ||
                   cc.family == HandlerFamily::kAccumulate;
  if (rmw) {
    est.time += sim::transfer_time(logical, cost.host_copy_gBps * 8.0);
    est.traffic_bytes += logical;
  }
  return est;
}

bool ComputePlan::elem_eligible(const ddt::TypePtr& type,
                                std::uint64_t count,
                                const ComputeConfig& cc) {
  return whole_elements(plan_regions(*type, count, cc.family),
                        type->size() * count, cc);
}

std::unique_ptr<ComputePlan> ComputePlan::create(
    const ddt::TypePtr& type, std::uint64_t count,
    const spin::CostModel& cost, dataloop::PackEngine engine,
    const ComputeConfig& cc, sim::MetricsRegistry& metrics) {
  NETDDT_CHECK(cc.family != HandlerFamily::kScatter,
               "kScatter is the byte-moving strategies' family, not a plan");
  ddt::RegionList regions = plan_regions(*type, count, cc.family);
  if (!whole_elements(regions, type->size() * count, cc)) return nullptr;
  return std::unique_ptr<ComputePlan>(new ComputePlan(
      type, count, cost, engine, cc, std::move(regions), metrics));
}

ComputePlan::ComputePlan(const ddt::TypePtr& type, std::uint64_t count,
                         const spin::CostModel& cost,
                         dataloop::PackEngine engine,
                         const ComputeConfig& cc, ddt::RegionList regions,
                         sim::MetricsRegistry& metrics)
    : type_(type),
      count_(count),
      cost_(&cost),
      cc_(cc),
      regions_(std::move(regions)) {
  logical_bytes_ = type->size() * count;
  stream_bytes_ = cc_.family == HandlerFamily::kTransform
                      ? logical_bytes_ / spin::quant_host_elem(cc_.quant) *
                            spin::quant_wire_elem(cc_.quant)
                      : logical_bytes_;
  // Family header: family/op/elem params + base/length, 32 B.
  descriptor_bytes_ = 32;
  if (cc_.family == HandlerFamily::kAccumulate) {
    if (engine == dataloop::PackEngine::kProgram) {
      program_ = dataloop::plan_cached(type, count).program;
    }
    descriptor_bytes_ += program_ != nullptr
                             ? program_->descriptor_bytes()
                             : 16 + regions_.size() * 16;
  }
  elems_ = &metrics.counter("nic.compute.elems");
  rmw_writes_ = &metrics.counter("nic.compute.rmw_writes");
  rmw_bytes_ = &metrics.counter("nic.compute.rmw_bytes");
  frag_count_ = &metrics.counter("nic.compute.fragments");
}

void ComputePlan::stage_fragment(spin::HandlerArgs& args,
                                 std::uint64_t elem_idx, std::uint32_t phase,
                                 std::uint32_t len, const std::byte* src,
                                 std::int64_t elem_host_off) {
  const spin::CostModel& c = *cost_;
  const std::size_t e = cc_.family == HandlerFamily::kTransform
                            ? spin::quant_wire_elem(cc_.quant)
                            : spin::elem_size(cc_.elem);
  args.meter.charge(spin::Phase::kProcessing, c.h_frag_stage);
  frag_count_->add(1);
  Frag& f = frags_[elem_idx];
  f.host_off = elem_host_off;
  for (std::uint32_t i = 0; i < len; ++i) {
    f.bytes[phase + i] = src[i];
    f.have = static_cast<std::uint8_t>(f.have | (1u << (phase + i)));
  }
  const auto full = static_cast<std::uint8_t>(e == 8 ? 0xFF : (1u << e) - 1);
  if (f.have != full) return;
  // Every byte of the element arrived (in whatever packet order): issue
  // one whole-element request. The assembled bytes move to stable
  // storage so the span outlives the handler (DMA landing reads it).
  elems_->add(1);
  args.meter.charge(spin::Phase::kProcessing, c.h_dma_issue);
  if (cc_.family == HandlerFamily::kTransform) {
    const std::size_t h = spin::quant_host_elem(cc_.quant);
    staging_.emplace_back(h);
    spin::dequantize(staging_.back().data(), f.bytes.data(), e, cc_.quant);
    args.dma.write(args.meter.total(), args.buffer_offset + f.host_off,
                   {staging_.back().data(), h});
  } else {
    assembled_.push_back(f.bytes);
    rmw_writes_->add(1);
    rmw_bytes_->add(e);
    args.dma.rmw(args.meter.total(), args.buffer_offset + f.host_off,
                 {assembled_.back().data(), e}, cc_.op, cc_.elem);
  }
  frags_.erase(elem_idx);
}

void ComputePlan::handle_window(spin::HandlerArgs& args) {
  const spin::CostModel& c = *cost_;
  args.meter.charge(spin::Phase::kInit, c.h_init);
  const std::uint64_t first = args.pkt.offset;
  const std::uint64_t last = first + args.pkt.payload_bytes;
  const std::size_t e = spin::elem_size(cc_.elem);
  // One piece of the destination mapping, stream_abs absolute.
  const auto piece = [&](std::int64_t host_off, std::uint64_t stream_abs,
                         std::uint64_t len) {
    while (len > 0) {
      const auto phase = static_cast<std::uint32_t>(stream_abs % e);
      if (phase != 0 || len < e) {
        // Head/tail fragment: the element straddles a packet boundary.
        const auto take =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                e - phase, len));
        stage_fragment(args, stream_abs / e, phase, take,
                       args.pkt.data + (stream_abs - first),
                       host_off - phase);
        host_off += take;
        stream_abs += take;
        len -= take;
        continue;
      }
      // Element-aligned core: one RMW request for the contiguous run.
      const std::uint64_t core = len - len % e;
      const std::uint64_t n = core / e;
      args.meter.charge(spin::Phase::kProcessing,
                        static_cast<sim::Time>(n) * c.h_alu_per_elem +
                            c.h_block_specialized + c.h_dma_issue);
      elems_->add(n);
      rmw_writes_->add(1);
      rmw_bytes_->add(core);
      args.dma.rmw(args.meter.total(), args.buffer_offset + host_off,
                   {args.pkt.data + (stream_abs - first), core}, cc_.op,
                   cc_.elem);
      host_off += static_cast<std::int64_t>(core);
      stream_abs += core;
      len -= core;
    }
  };
  // Resume lookup: binary search over the program's op array (or the
  // region prefix sums) to find the packet's start, as in
  // SpecializedPlan.
  if (program_ != nullptr) {
    args.meter.charge(spin::Phase::kSetup,
                      program_->search_steps() * sim::ns(8));
    // The program emits the window's regions in stream order.
    std::uint64_t stream = first;
    program_->for_each_region(
        first, last, [&](std::int64_t host_off, std::uint64_t len) {
          piece(host_off, stream, len);
          stream += len;
        });
    return;
  }
  args.meter.charge(spin::Phase::kSetup,
                    regions_.search_steps() * sim::ns(8));
  regions_.walk(first, last,
                [&](std::size_t, std::int64_t host_off,
                    std::uint64_t stream_off,
                    std::uint64_t len) { piece(host_off, stream_off, len); });
}

void ComputePlan::handle_transform(spin::HandlerArgs& args) {
  const spin::CostModel& c = *cost_;
  args.meter.charge(spin::Phase::kInit, c.h_init);
  const std::size_t w = spin::quant_wire_elem(cc_.quant);
  const std::size_t h = spin::quant_host_elem(cc_.quant);
  // Wire coordinates: wire element i expands to destination bytes
  // [i*h, (i+1)*h) — the identity mapping scaled by the width ratio.
  std::uint64_t pos = args.pkt.offset;
  const std::uint64_t last = pos + args.pkt.payload_bytes;
  while (pos < last) {
    const auto phase = static_cast<std::uint32_t>(pos % w);
    if (phase != 0 || last - pos < w) {
      const auto take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(w - phase, last - pos));
      stage_fragment(args, pos / w, phase, take,
                     args.pkt.data + (pos - args.pkt.offset),
                     static_cast<std::int64_t>(pos / w * h));
      pos += take;
      continue;
    }
    const std::uint64_t core = (last - pos) - (last - pos) % w;
    const std::uint64_t n = core / w;
    args.meter.charge(spin::Phase::kProcessing,
                      static_cast<sim::Time>(n) * c.h_quant_per_elem +
                          c.h_block_specialized + c.h_dma_issue);
    elems_->add(n);
    // Dequantize into NIC-memory staging (stable until the DMA lands),
    // then a plain idempotent write of the widened bytes.
    staging_.emplace_back(n * h);
    spin::dequantize(staging_.back().data(),
                     args.pkt.data + (pos - args.pkt.offset), core,
                     cc_.quant);
    args.dma.write(args.meter.total(),
                   args.buffer_offset +
                       static_cast<std::int64_t>(pos / w * h),
                   {staging_.back().data(), staging_.back().size()});
    pos += core;
  }
}

spin::ExecutionContext ComputePlan::context(spin::NicModel& nic) {
  (void)nic;
  spin::ExecutionContext ctx;
  ctx.policy = spin::SchedulingPolicy::Default();
  ctx.family = cc_.family;
  ctx.label = family_label(cc_.family);
  if (cc_.family == HandlerFamily::kTransform) {
    ctx.payload = [this](spin::HandlerArgs& args) { handle_transform(args); };
  } else {
    ctx.payload = [this](spin::HandlerArgs& args) { handle_window(args); };
  }
  const spin::CostModel& c = *cost_;
  const bool rmw = ctx.rmw();
  ctx.completion = [this, &c, rmw](spin::HandlerArgs& args) {
    args.meter.charge(spin::Phase::kProcessing, c.h_complete);
    if (rmw) {
      // The completion handler runs after every payload handler; with
      // duplicate replay gated, each stream byte was staged exactly once,
      // so no partially assembled element may remain. (kTransform skips
      // the check: replayed packets legitimately re-open fragments whose
      // writes already landed.)
      NETDDT_CHECK(frags_.empty(),
                   "compute completion with " +
                       std::to_string(frags_.size()) +
                       " split elements still unassembled");
    }
    args.dma.write(args.meter.total(), 0, {}, /*signal_event=*/true);
  };
  return ctx;
}

void ComputePlan::init_fill(std::byte* buf, std::int64_t shift,
                            std::uint64_t seed) const {
  if (cc_.family == HandlerFamily::kTransform) return;
  const std::size_t e = spin::elem_size(cc_.elem);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const ddt::Region& r = regions_.regions()[i];
    spin::fill_typed(buf + shift + r.offset, r.size, cc_.elem,
                     seed ^ kInitSeedSalt, regions_.prefix()[i] / e);
  }
}

void ComputePlan::host_reference(std::byte* buf, std::int64_t shift,
                                 const std::byte* stream,
                                 std::uint64_t stream_bytes,
                                 std::uint64_t seed) const {
  NETDDT_CHECK(stream_bytes == stream_bytes_,
               "host_reference got a " + std::to_string(stream_bytes) +
                   "-byte stream for a " + std::to_string(stream_bytes_) +
                   "-byte plan");
  init_fill(buf, shift, seed);
  switch (cc_.family) {
    case HandlerFamily::kTransform:
      spin::dequantize(buf + shift, stream, stream_bytes_, cc_.quant);
      break;
    case HandlerFamily::kReduce:
    case HandlerFamily::kAccumulate:
      // One combined contribution per element; order is irrelevant
      // because each destination element receives exactly one combine.
      for (std::size_t i = 0; i < regions_.size(); ++i) {
        const ddt::Region& r = regions_.regions()[i];
        spin::apply_reduce(buf + shift + r.offset,
                           stream + regions_.prefix()[i], r.size, cc_.op,
                           cc_.elem);
      }
      break;
    case HandlerFamily::kScatter: break;
  }
}

}  // namespace netddt::offload
