#include "spin/scheduler.hpp"

#include <cassert>
#include <string>

#include "sim/check.hpp"

namespace netddt::spin {

void Scheduler::set_tracer(sim::trace::Tracer* tracer) {
  tracer_ = tracer;
  hpu_tracks_.clear();
  if (tracer_ == nullptr) return;
  sched_track_ = tracer_->track("scheduler");
  hpu_tracks_.reserve(hpus_);
  for (std::uint32_t i = 0; i < hpus_; ++i) {
    hpu_tracks_.push_back(tracer_->track("hpu " + std::to_string(i)));
  }
}

void Scheduler::enqueue(std::uint64_t msg_id, const SchedulingPolicy& policy,
                        std::uint64_t pkt_index, Task task, const char* label,
                        std::int64_t trace_pkt) {
  Pending item{std::move(task), engine_->now(), label, msg_id, trace_pkt};
  if (tracer_ != nullptr && tracer_->events_on()) {
    tracer_->instant(sched_track_, "her", item.enqueued,
                     static_cast<std::int64_t>(msg_id), trace_pkt);
  }
  if (policy.kind == SchedulingPolicy::Kind::kDefault) {
    ready_.push_back(Runnable{std::move(item), nullptr});
    dispatch();
    return;
  }

  NETDDT_CHECK(policy.num_vhpus > 0 && policy.delta_p > 0,
               "msg " + std::to_string(msg_id) + ": scheduling policy with " +
                   std::to_string(policy.num_vhpus) + " vHPUs and delta_p " +
                   std::to_string(policy.delta_p));
  auto& list = vhpus_[msg_id];
  if (list.size() < policy.num_vhpus) list.resize(policy.num_vhpus);
  const std::uint64_t seq = pkt_index / policy.delta_p;
  Vhpu& v = list[seq % policy.num_vhpus];
  v.queue.push_back(std::move(item));
  if (!v.running && !v.ready_listed) {
    v.ready_listed = true;
    ready_.push_back(Runnable{{}, &v});
  }
  dispatch();
}

void Scheduler::dispatch() {
  while (busy_ < hpus_ && !ready_.empty()) {
    Runnable r = std::move(ready_.front());
    ready_.pop_front();
    if (r.vhpu != nullptr) {
      Vhpu& v = *r.vhpu;
      v.ready_listed = false;
      if (v.queue.empty()) continue;  // raced: packets already drained
      v.running = true;
      ++busy_;
      busy_hpus_->set(busy_);
      const std::uint32_t hpu = acquire_hpu();
      // Re-dispatching a yielded vHPU costs a context switch.
      vhpu_switches_->add(1);
      const sim::Time switch_cost = cost_->vhpu_switch;
      if (tracer_ != nullptr && tracer_->events_on()) {
        const Pending& head = v.queue.front();
        tracer_->complete(hpu_tracks_[hpu], "vhpu switch", engine_->now(),
                          engine_->now() + switch_cost,
                          static_cast<std::int64_t>(head.msg), head.pkt);
      }
      // The head item stays queued until the switch completes; capturing
      // only {this, vhpu, hpu} keeps the callback inside InlineCallback's
      // inline storage (a moved-in Pending would not fit). Safe because
      // running=true bars any other dispatch from popping this queue, and
      // later enqueues only push_back, so the front is stable.
      engine_->schedule(switch_cost, [this, owner = &v, hpu] {
        Pending item = std::move(owner->queue.front());
        owner->queue.pop_front();
        run_task(std::move(item), owner, hpu);
      });
    } else {
      ++busy_;
      busy_hpus_->set(busy_);
      run_task(std::move(r.item), nullptr, acquire_hpu());
    }
  }
}

void Scheduler::run_task(Pending item, Vhpu* owner, std::uint32_t hpu) {
  const sim::Time start = engine_->now();
  TaskResult result = item.task(start);
  const sim::Time runtime = result.runtime;
  if (result.end) {
    // The seq an end event of its own would take here: every later seq
    // and tie-break stays that of the two-event order.
    engine_->ticket();
    end_work_[hpu] = std::move(result.end);
  }
  handlers_run_->add(1);
  handler_time_->add(static_cast<std::uint64_t>(runtime));
  if (tracer_ != nullptr) {
    tracer_->latency(sim::trace::Stage::kHpuWait, start - item.enqueued);
    tracer_->latency(sim::trace::Stage::kHandler, runtime);
    if (auto* blame = tracer_->blame()) {
      blame->interval(item.msg, sim::trace::BlameStage::kHpuWait,
                      item.enqueued, start);
      blame->interval(item.msg, sim::trace::BlameStage::kHpuExecute, start,
                      start + runtime);
    }
    if (tracer_->events_on()) {
      tracer_->complete(hpu_tracks_[hpu], item.label, start, start + runtime,
                        static_cast<std::int64_t>(item.msg), item.pkt);
    }
  }
  engine_->schedule(runtime, [this, owner, hpu] {
    if (end_work_[hpu]) {
      // Before the HPU is released: work it enqueues finds it busy.
      EndWork end = std::move(end_work_[hpu]);
      end();
    }
    if (owner != nullptr && !owner->queue.empty()) {
      // The vHPU keeps its HPU while it has pending packets.
      Pending next = std::move(owner->queue.front());
      owner->queue.pop_front();
      run_task(std::move(next), owner, hpu);
      return;
    }
    if (owner != nullptr) owner->running = false;
    assert(busy_ > 0);
    --busy_;
    busy_hpus_->set(busy_);
    free_hpus_.push_back(hpu);
    dispatch();
  });
}

}  // namespace netddt::spin
