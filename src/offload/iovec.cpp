#include "offload/iovec.hpp"

namespace netddt::offload {

IovecPlan::IovecPlan(const ddt::TypePtr& type, std::uint64_t count,
                     const spin::CostModel& cost,
                     std::uint32_t window_entries)
    : cost_(&cost),
      window_(window_entries),
      regions_(type->region_list(count)) {
  // Building the list costs one walk of the type on the host.
  host_setup_time_ = static_cast<sim::Time>(regions_.size()) *
                     cost.host_block_overhead;
}

spin::ExecutionContext IovecPlan::context(spin::NicModel& nic) {
  (void)nic;
  spin::ExecutionContext ctx;
  // One serial engine: every packet processed in order.
  ctx.policy = spin::SchedulingPolicy::BlockedRR(1, 1);

  ctx.payload = [this](spin::HandlerArgs& args) {
    const spin::CostModel& c = *cost_;
    const std::uint64_t first = args.pkt.offset;
    regions_.walk(first, first + args.pkt.payload_bytes,
                  [&](std::size_t idx, std::int64_t host_off,
                      std::uint64_t stream_off, std::uint64_t len) {
                    if (idx >= fetched_) {
                      // Window exhausted: fetch the next v entries from
                      // host memory.
                      args.meter.charge(spin::Phase::kSetup,
                                        c.pcie_read_latency);
                      fetched_ += window_;
                    }
                    args.meter.charge(spin::Phase::kProcessing,
                                      c.iovec_per_block);
                    args.dma.write(args.meter.total(),
                                   args.buffer_offset + host_off,
                                   {args.pkt.data + (stream_off - first),
                                    len});
                  });
  };

  ctx.completion = [c = cost_](spin::HandlerArgs& args) {
    args.dma.write(args.meter.total() + c->h_complete, 0, {},
                   /*signal_event=*/true);
  };
  return ctx;
}

}  // namespace netddt::offload
