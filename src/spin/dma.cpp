#include "spin/dma.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "sim/check.hpp"

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

namespace {

// (when, seq) order: the engine's dispatch order.
bool before(sim::Time a_when, std::uint64_t a_seq, sim::Time b_when,
            std::uint64_t b_seq) {
  return a_when != b_when ? a_when < b_when : a_seq < b_seq;
}

// Max-heap comparator that puts the earliest run head on top.
constexpr auto later_head = [](const auto& a, const auto& b) {
  return before(b.when, b.seq, a.when, a.seq);
};

}  // namespace

void DmaEngine::enqueue_at(sim::Time when, const Request& req) {
  NETDDT_CHECK(when >= engine_->now(),
               "DMA write for msg " + std::to_string(req.msg_id) +
                   " issued for t=" + std::to_string(when) +
                   " ps, before now=" + std::to_string(engine_->now()) +
                   " ps");
  NETDDT_CHECK(req.src.empty() ||
                   (req.host_off >= 0 &&
                    static_cast<std::size_t>(req.host_off) + req.src.size() <=
                        host_.size()),
               "DMA write for msg " + std::to_string(req.msg_id) +
                   " of " + std::to_string(req.src.size()) +
                   " bytes at host offset " + std::to_string(req.host_off) +
                   " overruns the " + std::to_string(host_.size()) +
                   "-byte host buffer");
  if (req.signal_event) {
    // A signalled write stays an engine event: its arrival schedules the
    // landing event, which must draw its seq in dispatch order.
    engine_->schedule_at(when, [this, req] {
      drain();
      arrive(req, engine_->now());
    });
    return;
  }

  // A run holds one dispatching event's writes, so it empties (and its
  // storage recycles) once that event's writes have all arrived.
  const std::uint64_t seq = engine_->ticket();
  if (open_run_ == kNoRun || open_owner_ != engine_->current_seq() ||
      when < runs_[open_run_].writes.back().when) {
    open_owner_ = engine_->current_seq();
    if (free_runs_.empty()) {
      open_run_ = static_cast<std::uint32_t>(runs_.size());
      runs_.emplace_back();
    } else {
      open_run_ = free_runs_.back();
      free_runs_.pop_back();
    }
    heads_.push_back(Head{when, seq, open_run_, false});
    std::push_heap(heads_.begin(), heads_.end(), later_head);
  }
  runs_[open_run_].writes.push_back(Pending{when, seq, req});
  last_arrival_ = std::max(last_arrival_, when);
  drain();
  arm_sweep();
}

void DmaEngine::write_train(sim::Time when, sim::Time step,
                            std::int64_t host_off, std::int64_t stride,
                            const std::byte* src, std::uint64_t block,
                            std::uint64_t count, std::uint64_t msg_id) {
  if (count == 0) return;
  if (count == 1) {
    write_at(when, host_off, {src, block}, false, msg_id);
    return;
  }
  NETDDT_CHECK(when >= engine_->now(),
               "DMA write train for msg " + std::to_string(msg_id) +
                   " issued for t=" + std::to_string(when) +
                   " ps, before now=" + std::to_string(engine_->now()) +
                   " ps");
  NETDDT_CHECK(step >= 0, "DMA write train for msg " +
                              std::to_string(msg_id) + " has issue step " +
                              std::to_string(step) + " ps < 0");
  const std::int64_t last_off =
      host_off + static_cast<std::int64_t>(count - 1) * stride;
  const auto fits = [&](std::int64_t off) {
    return off >= 0 && static_cast<std::size_t>(off) + block <= host_.size();
  };
  NETDDT_CHECK(block == 0 || (fits(host_off) && fits(last_off)),
               "DMA write train for msg " + std::to_string(msg_id) + " of " +
                   std::to_string(count) + " x " + std::to_string(block) +
                   " bytes at host offsets " + std::to_string(host_off) +
                   " .. " + std::to_string(last_off) + " overruns the " +
                   std::to_string(host_.size()) + "-byte host buffer");

  // Draw tickets and arm the sweep as the writes would have one by one:
  // write 0's ticket, then (if write 0 arms it) the sweep's seq, then
  // the other writes'. Write i is stamped seq + i all the same: if the
  // sweep took seq + 1, write 1 ties with it, and a write is due only
  // strictly before the dispatching (now, seq), so the tie orders it
  // exactly as its own later ticket would. drain() cannot serve the
  // train's writes here: their seqs are past the dispatching event's.
  const std::uint64_t seq = engine_->ticket();
  last_arrival_ = std::max(last_arrival_, when);
  drain();
  arm_sweep();
  engine_->tickets(count - 1);
  last_arrival_ = std::max(
      last_arrival_, when + static_cast<sim::Time>(count - 1) * step);

  std::uint32_t t;
  if (trains_.capacity() == 0) trains_.reserve(kInitialTrains);
  if (free_trains_.empty()) {
    t = static_cast<std::uint32_t>(trains_.size());
    trains_.emplace_back();
  } else {
    t = free_trains_.back();
    free_trains_.pop_back();
  }
  trains_[t] = Train{when, step, seq,   host_off, stride,
                     src,  block, count, msg_id};
  heads_.push_back(Head{when, seq, t, true});
  std::push_heap(heads_.begin(), heads_.end(), later_head);
}

void DmaEngine::drain() {
  if (heads_.empty()) return;
  const sim::Time now = engine_->now();
  const std::uint64_t cur = engine_->current_seq();
  while (!heads_.empty() &&
         before(heads_.front().when, heads_.front().seq, now, cur)) {
    std::pop_heap(heads_.begin(), heads_.end(), later_head);
    const Head head = heads_.back();
    heads_.pop_back();
    // Serve the leading entry while it stays ahead of both the
    // runner-up and the dispatching event.
    sim::Time until_when = now;
    std::uint64_t until_seq = cur;
    if (!heads_.empty() && before(heads_.front().when, heads_.front().seq,
                                  until_when, until_seq)) {
      until_when = heads_.front().when;
      until_seq = heads_.front().seq;
    }
    if (head.train) {
      if (serve_train(head.index, until_when, until_seq)) {
        const Train& t = trains_[head.index];
        heads_.push_back(Head{t.when, t.seq, head.index, true});
        std::push_heap(heads_.begin(), heads_.end(), later_head);
      } else {
        free_trains_.push_back(head.index);
      }
    } else if (serve_run(head.index, until_when, until_seq)) {
      const Run& run = runs_[head.index];
      const Pending& p = run.writes[run.next];
      heads_.push_back(Head{p.when, p.seq, head.index, false});
      std::push_heap(heads_.begin(), heads_.end(), later_head);
    }
  }
}

bool DmaEngine::serve_run(std::uint32_t r, sim::Time until_when,
                          std::uint64_t until_seq) {
  Run& run = runs_[r];
  do {
    const Pending& p = run.writes[run.next++];
    arrive(p.req, p.when);
  } while (run.next < run.writes.size() &&
           before(run.writes[run.next].when, run.writes[run.next].seq,
                  until_when, until_seq));
  if (run.next < run.writes.size()) return true;
  run.writes.clear();
  run.next = 0;
  free_runs_.push_back(r);
  if (open_run_ == r) open_run_ = kNoRun;
  return false;
}

bool DmaEngine::serve_train(std::uint32_t i, sim::Time until_when,
                            std::uint64_t until_seq) {
  Train& t = trains_[i];
  Request req;
  req.signal_event = false;
  req.msg_id = t.msg_id;
  do {
    req.host_off = t.host_off;
    req.src = {t.src, t.block};
    arrive(req, t.when);
    t.when += t.step;
    ++t.seq;
    t.host_off += t.stride;
    t.src += t.block;
  } while (--t.left > 0 && before(t.when, t.seq, until_when, until_seq));
  return t.left > 0;
}

void DmaEngine::arrive(const Request& req, sim::Time now) {
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
      drain();
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
    NETDDT_CHECK(depth_->value() > 0,
                 "DMA landing for msg " + std::to_string(landed.msg_id) +
                     " at t=" + std::to_string(landed.at) +
                     " ps retires from queue depth " +
                     std::to_string(depth_->value()));
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
  engine_->schedule_at(std::max(last_landing_, last_arrival_), [this] {
    // Still armed while it serves: arrivals it drains must not re-arm.
    drain();
    retire(engine_->now());
    sweep_armed_ = false;
    if (!plain_landings_.empty() || !rmw_landings_.empty() ||
        !heads_.empty()) {
      arm_sweep();
    }
  });
}

}  // namespace netddt::spin
