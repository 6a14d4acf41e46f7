#include "offload/general.hpp"

#include <algorithm>
#include <string>

#include "dataloop/cache.hpp"
#include "offload/host_model.hpp"
#include "p4/packet.hpp"
#include "sim/check.hpp"

namespace netddt::offload {

sim::Time estimate_handler_runtime(double gamma, const spin::CostModel& c) {
  const double blocks = std::max(gamma, 1.0);
  return c.h_init + c.h_setup +
         static_cast<sim::Time>(blocks * static_cast<double>(
                                             c.h_block + c.h_dma_issue));
}

std::uint64_t choose_checkpoint_interval(const IntervalInputs& in) {
  const std::uint64_t k = in.pkt_payload;
  const std::uint64_t msg = std::max<std::uint64_t>(in.message_bytes, k);
  const std::uint64_t npkt = (msg + k - 1) / k;
  const std::uint64_t P = std::max<std::uint32_t>(in.hpus, 1);

  // Constraint 1 (upper bound): the blocked-RR scheduling dependency,
  //   T_pkt + ceil(dr/k) * (P-1) * T_pkt <= eps * ceil(npkt/P) * T_PH,
  // caps how many packets a sequence may serialize.
  std::uint64_t dr_eps = msg;  // P == 1: no dependency, one checkpoint
  if (P > 1 && in.pkt_arrival > 0) {
    const double budget =
        in.epsilon * static_cast<double>((npkt + P - 1) / P) *
            static_cast<double>(in.handler_runtime) -
        static_cast<double>(in.pkt_arrival);
    const double seqs =
        budget / (static_cast<double>(P - 1) *
                  static_cast<double>(in.pkt_arrival));
    const auto whole = static_cast<std::uint64_t>(std::max(seqs, 1.0));
    dr_eps = whole * k;
  }

  // Constraint 2 (lower bound): ceil(msg/dr) checkpoints of C bytes must
  // fit in the NIC memory budget.
  std::uint64_t dr_mem = k;
  if (in.nic_memory_budget > 0) {
    const std::uint64_t max_cps =
        std::max<std::uint64_t>(in.nic_memory_budget / in.checkpoint_bytes,
                                1);
    dr_mem = ((msg + max_cps - 1) / max_cps + k - 1) / k * k;
  }

  std::uint64_t dr = std::max(std::min(dr_eps, msg), dr_mem);

  // Constraint 3: packets buffered while a sequence serializes must fit
  // in the packet buffer: min(T_PH * k / T_pkt, dr) <= B_pkt.
  if (in.pkt_buffer_bytes > 0 && in.pkt_arrival > 0) {
    const auto backlog = static_cast<std::uint64_t>(
        static_cast<double>(in.handler_runtime) /
        static_cast<double>(in.pkt_arrival) * static_cast<double>(k));
    if (backlog > in.pkt_buffer_bytes) {
      dr = std::min<std::uint64_t>(
          dr, std::max<std::uint64_t>(in.pkt_buffer_bytes / k, 1) * k);
    }
  }

  return std::max<std::uint64_t>((dr / k) * k, k);
}

GeneralPlan::GeneralPlan(const ddt::TypePtr& type, std::uint64_t count,
                         const GeneralConfig& config,
                         const spin::CostModel& cost)
    : config_(config), cost_(&cost), loops_(dataloop::compile_cached(type, count)) {
  const std::uint64_t msg = loops_->total_bytes();
  const std::uint64_t k = cost.pkt_payload;
  const std::uint64_t npkt = p4::packet_count(msg, cost.pkt_payload);
  const double gamma =
      static_cast<double>(type->block_count() * count) /
      static_cast<double>(npkt);
  const sim::Time tph = estimate_handler_runtime(gamma, cost);
  const std::uint64_t dataloop_bytes = loops_->serialized_bytes();
  const std::uint64_t blocks = type->block_count() * count;

  switch (config.kind) {
    case StrategyKind::kHpuLocal: {
      policy_ = spin::SchedulingPolicy::BlockedRR(config.hpus, 1);
      segments_.assign(config.hpus, dataloop::Segment(*loops_));
      descriptor_bytes_ =
          dataloop_bytes +
          config.hpus * dataloop::Segment::kFootprintBytes;
      // Only the dataloops cross PCIe; replicas start as fresh segments.
      host_setup_time_ =
          cost.pcie_read_latency + cost.pcie_transfer(dataloop_bytes);
      break;
    }
    case StrategyKind::kRoCp: {
      policy_ = spin::SchedulingPolicy::Default();
      IntervalInputs in;
      in.message_bytes = msg;
      in.pkt_payload = cost.pkt_payload;
      in.hpus = config.hpus;
      in.pkt_arrival = cost.pkt_interval();
      in.handler_runtime = tph;
      in.epsilon = config.epsilon;
      in.nic_memory_budget = config.nic_memory_budget;
      in.pkt_buffer_bytes = config.pkt_buffer_bytes;
      interval_ = choose_checkpoint_interval(in);
      table_.emplace(*loops_, interval_);
      descriptor_bytes_ = dataloop_bytes + table_->footprint_bytes();
      host_setup_time_ = host_checkpoint_setup_time(
          blocks, table_->footprint_bytes() + dataloop_bytes, cost);
      break;
    }
    case StrategyKind::kRwCp: {
      IntervalInputs in;
      in.message_bytes = msg;
      in.pkt_payload = cost.pkt_payload;
      in.hpus = config.hpus;
      in.pkt_arrival = cost.pkt_interval();
      in.handler_runtime = tph;
      in.epsilon = config.epsilon;
      // Master + working copies both live in NIC memory.
      in.nic_memory_budget = config.nic_memory_budget / 2;
      in.pkt_buffer_bytes = config.pkt_buffer_bytes;
      interval_ = choose_checkpoint_interval(in);
      const auto delta_p =
          static_cast<std::uint32_t>((interval_ + k - 1) / k);
      const auto nseq = static_cast<std::uint32_t>(
          (npkt + delta_p - 1) / delta_p);
      policy_ = spin::SchedulingPolicy::BlockedRR(nseq, delta_p);
      table_.emplace(*loops_, interval_);
      // Working set: each vHPU exclusively owns checkpoint #seq.
      segments_.reserve(nseq);
      for (std::uint32_t s = 0; s < nseq; ++s) {
        segments_.push_back(
            table_->at(std::min<std::size_t>(s, table_->size() - 1)).state);
      }
      descriptor_bytes_ = dataloop_bytes + 2 * table_->footprint_bytes();
      host_setup_time_ = host_checkpoint_setup_time(
          blocks, 2 * table_->footprint_bytes() + dataloop_bytes, cost);
      break;
    }
    default:
      NETDDT_CHECK(false, "GeneralPlan handles HPU-local / RO-CP / RW-CP "
                          "only, not " +
                              std::string(strategy_name(config.kind)));
  }
}

void GeneralPlan::scatter(spin::HandlerArgs& args, dataloop::Segment& seg) {
  const spin::CostModel& c = *cost_;
  const std::uint64_t first = args.pkt.offset;
  const std::uint64_t last = first + args.pkt.payload_bytes;

  // Catch up (or rewind) to the packet start, charging before the
  // processing loop so DMA issue instants stay ordered.
  const auto cstats = seg.advance_to(first);
  if (cstats.reset) {
    args.meter.charge(spin::Phase::kSetup, c.h_reset);
    if (m_resets_ != nullptr) m_resets_->add(1);
    mark("seg.reset", args);
  }
  if (m_catchup_blocks_ != nullptr) {
    m_catchup_blocks_->add(cstats.catchup_blocks);
  }
  args.meter.charge(spin::Phase::kSetup,
                    c.h_setup + static_cast<sim::Time>(
                                    cstats.catchup_blocks) *
                                    c.h_catchup_block);

  // A vector leaf's whole blocks go to the DMA engine as one train.
  spin::BlockWriter out(args, c.h_block + c.h_dma_issue);
  seg.process(
      first, last,
      [&](std::int64_t off, std::uint64_t sz) { out.region(off, sz); },
      [&](std::int64_t off, std::int64_t stride, std::uint64_t block,
          std::uint64_t count) { out.train(off, stride, block, count); });
}

void GeneralPlan::payload_hpu_local(spin::HandlerArgs& args) {
  args.meter.charge(spin::Phase::kInit, cost_->h_init);
  const std::uint64_t pkt_index = args.pkt.offset / cost_->pkt_payload;
  scatter(args, segments_[pkt_index % segments_.size()]);
}

void GeneralPlan::payload_ro_cp(spin::HandlerArgs& args) {
  // Copy the closest checkpoint locally; never write shared state back.
  args.meter.charge(spin::Phase::kInit, cost_->h_init + cost_->h_seg_copy);
  if (m_ckpt_copies_ != nullptr) m_ckpt_copies_->add(1);
  mark("ckpt.copy", args);
  dataloop::Segment local = table_->closest(args.pkt.offset).state;
  scatter(args, local);
}

void GeneralPlan::payload_rw_cp(spin::HandlerArgs& args) {
  args.meter.charge(spin::Phase::kInit, cost_->h_init);
  const std::uint64_t pkt_index = args.pkt.offset / cost_->pkt_payload;
  const std::uint64_t k = cost_->pkt_payload;
  const std::uint64_t delta_p = (interval_ + k - 1) / k;
  const std::uint64_t seq = pkt_index / delta_p;
  dataloop::Segment& seg = segments_[seq % segments_.size()];

  if (args.pkt.offset < seg.position()) {
    // Out-of-order arrival: the progressing checkpoint is ahead of this
    // packet. Restore the master copy and catch up from there.
    args.meter.charge(spin::Phase::kInit,
                      cost_->h_seg_copy + cost_->h_reset);
    if (m_rollbacks_ != nullptr) m_rollbacks_->add(1);
    if (m_ckpt_copies_ != nullptr) m_ckpt_copies_->add(1);
    mark("rollback", args);
    seg = table_->at(std::min<std::size_t>(seq, table_->size() - 1)).state;
  }
  scatter(args, seg);
}

void GeneralPlan::mark(const char* name, const spin::HandlerArgs& args) {
  if (tracer_ == nullptr || !tracer_->events_on()) return;
  // The handler runs functionally at engine-now; the charged total is
  // how far into its simulated runtime the event happened.
  tracer_->instant(
      offload_track_, name, engine_->now() + args.meter.total(),
      static_cast<std::int64_t>(args.pkt.msg_id),
      static_cast<std::int64_t>(args.pkt.offset / cost_->pkt_payload));
}

spin::ExecutionContext GeneralPlan::context(spin::NicModel& nic) {
  sim::MetricsRegistry& m = nic.metrics();
  m_ckpt_copies_ = &m.counter("offload.checkpoint.copies");
  m_rollbacks_ = &m.counter("offload.rollbacks");
  m_resets_ = &m.counter("offload.segment_resets");
  m_catchup_blocks_ = &m.counter("offload.catchup_blocks");
  tracer_ = nic.tracer();
  engine_ = &nic.engine();
  if (tracer_ != nullptr && tracer_->events_on()) {
    offload_track_ = tracer_->track("offload");
  }
  spin::ExecutionContext ctx;
  ctx.policy = policy_;
  switch (config_.kind) {
    case StrategyKind::kHpuLocal:
      ctx.payload = [this](spin::HandlerArgs& a) { payload_hpu_local(a); };
      break;
    case StrategyKind::kRoCp:
      ctx.payload = [this](spin::HandlerArgs& a) { payload_ro_cp(a); };
      break;
    case StrategyKind::kRwCp:
      ctx.payload = [this](spin::HandlerArgs& a) { payload_rw_cp(a); };
      break;
    default:
      break;
  }
  ctx.completion = [c = cost_](spin::HandlerArgs& args) {
    args.meter.charge(spin::Phase::kProcessing, c->h_complete);
    args.dma.write(args.meter.total(), 0, {}, /*signal_event=*/true);
  };
  return ctx;
}

}  // namespace netddt::offload
