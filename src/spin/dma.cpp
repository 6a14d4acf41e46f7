#include "spin/dma.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace netddt::spin {

DmaEngine::DmaEngine(sim::Engine& engine, const CostModel& cost,
                     std::span<std::byte> host_memory,
                     sim::MetricsRegistry* metrics)
    : engine_(&engine), cost_(&cost), host_(host_memory) {
  if (metrics == nullptr) {
    local_metrics_ = std::make_unique<sim::MetricsRegistry>();
    metrics = local_metrics_.get();
  }
  writes_ = &metrics->counter("nic.dma.writes");
  bytes_ = &metrics->counter("nic.dma.bytes");
  depth_ = &metrics->gauge("nic.dma.queue_depth");
  trace_ = &metrics->series("nic.dma.queue_depth.trace");
}

void DmaEngine::set_tracer(sim::trace::Tracer* tracer) {
  tracer_ = tracer;
  last_depth_emitted_ = -1.0;
  if (tracer_ == nullptr) return;
  if (tracer_->events_on()) {
    dma_track_ = tracer_->track("dma");
    queue_track_ = tracer_->track("dma queue");
  }
}

void DmaEngine::sample(sim::Time at) {
  // Occupancy counts every request arrived but not yet landed in host
  // memory — queued at the engine, in service, or in the PCIe posted-
  // write window. This matches the paper's Fig 14/15 "DMA write
  // requests queue" semantics.
  if (tracer_ == nullptr || !tracer_->events_on()) return;
  const double depth = static_cast<double>(depth_->value());
  trace_->record(at, depth);
  // The Series keeps every sample (Fig 15 needs the raw shape); the
  // Chrome counter track only needs changes.
  if (depth != last_depth_emitted_) {
    tracer_->counter(queue_track_, "depth", at, depth);
    last_depth_emitted_ = depth;
  }
}

void DmaEngine::write(std::int64_t host_off, std::span<const std::byte> src,
                      bool signal_event, std::uint64_t msg_id) {
  write_at(engine_->now(), host_off, src, signal_event, msg_id);
}

void DmaEngine::write_at(sim::Time when, std::int64_t host_off,
                         std::span<const std::byte> src, bool signal_event,
                         std::uint64_t msg_id) {
  Request req;
  req.host_off = host_off;
  req.src = src;
  req.signal_event = signal_event;
  req.msg_id = msg_id;
  enqueue_at(when, req);
}

void DmaEngine::write_rmw_at(sim::Time when, std::int64_t host_off,
                             std::span<const std::byte> src, ReduceOp op,
                             ElemType elem, std::uint64_t msg_id) {
  Request req;
  req.host_off = host_off;
  req.src = src;
  req.signal_event = false;
  req.rmw = true;
  req.op = op;
  req.elem = elem;
  req.msg_id = msg_id;
  enqueue_at(when, req);
}

void DmaEngine::enqueue_at(sim::Time when, const Request& req) {
  assert(when >= engine_->now());
  engine_->schedule_at(when, [this, req] { arrive(req); });
}

void DmaEngine::arrive(const Request& req) {
  const sim::Time now = engine_->now();
  retire(now);
  depth_->add(1);
  sample(now);

  const sim::Time service = req.rmw ? cost_->dma_rmw_service(req.src.size())
                                    : cost_->dma_service(req.src.size());
  const sim::Time begin = std::max(now, free_at_);
  free_at_ = begin + service;
  // Posted writes pipeline: the write lands one PCIe write latency after
  // its service ends; RMW requests fetch the destination first.
  const sim::Time landing =
      free_at_ + cost_->pcie_write_latency +
      (req.rmw ? cost_->pcie_rmw_turnaround : 0);
  if (tracer_ != nullptr) {
    tracer_->latency(sim::trace::Stage::kDmaQueueWait, begin - now);
    tracer_->latency(sim::trace::Stage::kPcieTransfer, landing - begin);
    if (auto* blame = tracer_->blame()) {
      blame->interval(req.msg_id, sim::trace::BlameStage::kDmaQueue, now,
                      begin);
      blame->interval(req.msg_id, sim::trace::BlameStage::kDmaTransfer,
                      begin, landing);
    }
    if (tracer_->events_on()) {
      tracer_->complete(dma_track_, "dma write", begin, free_at_,
                        static_cast<std::int64_t>(req.msg_id));
    }
  }

  // The bytes move at arrival, in service order; the host only reads
  // them after the signalled landing that completes the message.
  if (!req.src.empty()) {
    assert(req.host_off >= 0 &&
           static_cast<std::size_t>(req.host_off) + req.src.size() <=
               host_.size() &&
           "DMA write outside host buffer");
    if (req.rmw) {
      apply_reduce(host_.data() + req.host_off, req.src.data(),
                   req.src.size(), req.op, req.elem);
    } else {
      std::memcpy(host_.data() + req.host_off, req.src.data(),
                  req.src.size());
    }
  }
  writes_->add(1);
  bytes_->add(req.src.size());

  (req.rmw ? rmw_landings_ : plain_landings_)
      .push_back(Landing{landing, req.msg_id});
  last_landing_ = std::max(last_landing_, landing);
  if (req.signal_event) {
    engine_->schedule_at(landing, [this, msg_id = req.msg_id] {
      retire(engine_->now());
      if (on_complete_) on_complete_(msg_id, engine_->now());
    });
  }
  arm_sweep();
}

void DmaEngine::retire(sim::Time now) {
  for (;;) {
    const bool plain =
        !plain_landings_.empty() && plain_landings_.front().at <= now;
    const bool rmw = !rmw_landings_.empty() && rmw_landings_.front().at <= now;
    if (!plain && !rmw) return;
    // On equal landing times the RMW request finished service first (its
    // landing carries the extra turnaround), so it retires first.
    auto& fifo = rmw && (!plain || rmw_landings_.front().at <=
                                       plain_landings_.front().at)
                     ? rmw_landings_
                     : plain_landings_;
    const Landing landed = fifo.front();
    fifo.pop_front();
    assert(depth_->value() > 0);
    depth_->sub(1);
    sample(landed.at);
    if (tracer_ != nullptr && tracer_->events_on()) {
      tracer_->instant(dma_track_, "landed", landed.at,
                       static_cast<std::int64_t>(landed.msg_id));
    }
  }
}

void DmaEngine::arm_sweep() {
  if (sweep_armed_) return;
  sweep_armed_ = true;
  engine_->schedule_at(last_landing_, [this] {
    sweep_armed_ = false;
    retire(engine_->now());
    if (!plain_landings_.empty() || !rmw_landings_.empty()) arm_sweep();
  });
}

}  // namespace netddt::spin
