#pragma once
// HER scheduler: assigns ready handler-execution requests to idle HPUs.
//
// Two policies (paper Sec 3.2.1):
//  - default: ready handlers form one FIFO; any idle HPU takes the head.
//  - blocked round-robin: packet sequences of delta_p consecutive packets
//    map to virtual HPUs (seq = pkt_index / delta_p, vHPU = seq mod V).
//    A vHPU serializes its packets; vHPUs with pending work compete for
//    physical HPUs. A vHPU keeps its HPU while it has queued packets and
//    yields otherwise — re-dispatching charges a context-switch cost.
//
// Tracing: when a Tracer is attached, every handler run becomes a span
// on its physical HPU's track (named by the strategy label, correlated
// by msg/pkt ids), the enqueue->start delay feeds the hpu_wait latency
// histogram and the runtime feeds the handler histogram. HPU ids are
// assigned lowest-free-first; assignment never influences timing.
//
// Task end: a handler's end is one engine event, as in the paper's NIC
// (an HPU finishing a handler is released and the NIC does its
// bookkeeping in one step). A task returns its runtime together with
// its end work (the NIC's packet-buffer / outstanding / completion
// bookkeeping, an outbound packet's readiness); the end work runs first
// inside the HPU-release event, while the HPU still counts as busy.
// Right after the task body the scheduler draws the engine ticket a
// separate end event would take, so every later seq and every tie-break
// is that of an end event dispatched just before the release.

#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_function.hpp"
#include "sim/metrics.hpp"
#include "sim/trace/trace.hpp"
#include "spin/cost_model.hpp"
#include "spin/handler.hpp"

namespace netddt::spin {

class Scheduler {
 public:
  /// Work a task leaves for the instant it ends. Runs first inside the
  /// HPU-release event; 32 B of inline storage holds the NIC's and the
  /// outbound engine's end lambdas.
  using EndWork = sim::InlineFunction<void(), 32>;
  /// What a task returns: the simulated runtime it charged and its end
  /// work (empty for none). Converts from a bare runtime. An end
  /// callable must fit EndWork's inline buffer (checked at compile
  /// time): it runs once per handler, and the engine's heap-callback
  /// count never sees it.
  struct TaskResult {
    template <typename F = EndWork>
    TaskResult(sim::Time runtime,  // NOLINT(google-explicit-constructor)
               F end = {})
        : runtime(runtime), end(std::move(end)) {
      static_assert(std::is_same_v<F, EndWork> ||
                        EndWork::kFitsInline<F>,
                    "end work must fit EndWork's inline buffer");
    }
    sim::Time runtime;
    EndWork end;
  };
  /// A handler task: runs (functionally) at `start` and returns its
  /// TaskResult. Move-only with 64 B of inline storage — the NIC's
  /// header/payload/completion task lambdas all fit without a heap
  /// allocation (see sim/inline_function.hpp).
  using Task = sim::InlineFunction<TaskResult(sim::Time), 64>;

  /// Publishes under "nic.sched"; nullptr gets a private registry.
  Scheduler(sim::Engine& engine, std::uint32_t hpus, const CostModel& cost,
            sim::MetricsRegistry* metrics = nullptr)
      : engine_(&engine), cost_(&cost), hpus_(hpus) {
    if (metrics == nullptr) {
      local_metrics_ = std::make_unique<sim::MetricsRegistry>();
      metrics = local_metrics_.get();
    }
    handlers_run_ = &metrics->counter("nic.sched.handlers_run");
    handler_time_ = &metrics->counter("nic.sched.handler_time_ps");
    vhpu_switches_ = &metrics->counter("nic.sched.vhpu_switches");
    busy_hpus_ = &metrics->gauge("nic.sched.busy_hpus");
    free_hpus_.reserve(hpus_);
    end_work_.resize(hpus_);
    for (std::uint32_t i = hpus_; i > 0; --i) free_hpus_.push_back(i - 1);
  }

  /// Enqueue a handler for packet `pkt_index` of message `msg_id` under
  /// `policy` at the current simulated time. `label` names the handler
  /// span in traces (must outlive the run — a literal or interned
  /// string); `trace_pkt` is the packet correlation id (-1 = none, e.g.
  /// completion handlers).
  void enqueue(std::uint64_t msg_id, const SchedulingPolicy& policy,
               std::uint64_t pkt_index, Task task,
               const char* label = "handler", std::int64_t trace_pkt = -1);
  /// Same, with the trace context ahead of the task — reads better at
  /// call sites where the task is a long lambda.
  void enqueue(std::uint64_t msg_id, const SchedulingPolicy& policy,
               std::uint64_t pkt_index, const char* label,
               std::int64_t trace_pkt, Task task) {
    enqueue(msg_id, policy, pkt_index, std::move(task), label, trace_pkt);
  }

  /// Attach an event tracer (nullptr detaches); registers one track per
  /// physical HPU.
  void set_tracer(sim::trace::Tracer* tracer);

  std::uint32_t hpus() const { return hpus_; }
  std::uint32_t busy() const { return busy_; }
  bool idle() const { return busy_ == 0 && ready_.empty(); }
  std::uint64_t handlers_run() const { return handlers_run_->value(); }
  sim::Time total_handler_time() const {
    return static_cast<sim::Time>(handler_time_->value());
  }

  /// Drop per-message vHPU state once a message completes.
  /// Precondition: no handler of `msg_id` is queued or running and no
  /// further enqueue() for it will follow — the ready queue holds raw
  /// Vhpu pointers into the erased deques. The NIC guarantees this by
  /// dispatching the completion handler only after every payload handler
  /// drained, and by dropping stale packet re-arrivals (duplicates, late
  /// retransmits on a lossy wire) once the message is done.
  void release_message(std::uint64_t msg_id) { vhpus_.erase(msg_id); }

 private:
  /// A queued handler plus the context needed to trace it.
  struct Pending {
    Task task;
    sim::Time enqueued = 0;
    const char* label = "handler";
    std::uint64_t msg = 0;
    std::int64_t pkt = -1;
  };
  struct Vhpu {
    std::deque<Pending> queue;
    bool running = false;
    bool ready_listed = false;  // sitting in the ready queue
  };
  struct Runnable {
    Pending item;           // default-policy task, or
    Vhpu* vhpu = nullptr;   // a vHPU to resume
  };

  void dispatch();
  void run_task(Pending item, Vhpu* owner, std::uint32_t hpu);
  std::uint32_t acquire_hpu() {
    const std::uint32_t hpu = free_hpus_.back();
    free_hpus_.pop_back();
    return hpu;
  }

  sim::Engine* engine_;
  const CostModel* cost_;
  std::uint32_t hpus_;
  std::uint32_t busy_ = 0;
  std::deque<Runnable> ready_;
  // deque, not vector: ready_ holds Vhpu* into these lists, and Pending
  // is move-only — deque::resize never relocates existing elements.
  std::unordered_map<std::uint64_t, std::deque<Vhpu>> vhpus_;
  // Stack of idle physical HPU ids (initially 0 on top). Deterministic
  // LIFO reuse; the assignment only labels trace tracks, never timing.
  std::vector<std::uint32_t> free_hpus_;
  // The end work of the task running on each physical HPU, kept here
  // so the release event's capture stays {this, vhpu, hpu}.
  std::vector<EndWork> end_work_;

  std::unique_ptr<sim::MetricsRegistry> local_metrics_;
  sim::Counter* handlers_run_;   // nic.sched.handlers_run
  sim::Counter* handler_time_;   // nic.sched.handler_time_ps
  sim::Counter* vhpu_switches_;  // nic.sched.vhpu_switches
  sim::Gauge* busy_hpus_;        // nic.sched.busy_hpus

  sim::trace::Tracer* tracer_ = nullptr;
  std::vector<std::uint32_t> hpu_tracks_;
  std::uint32_t sched_track_ = 0;
};

}  // namespace netddt::spin
