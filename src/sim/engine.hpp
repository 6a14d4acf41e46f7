#pragma once
// Discrete-event simulation engine.
//
// A minimal, deterministic event-driven core: events are (time, sequence,
// callback) triples ordered by time with FIFO tie-breaking, so two events
// scheduled for the same instant fire in scheduling order. All NIC, PCIe
// and host models in this repository are built on this engine.
//
// Tickets: a sequence number can be drawn ahead of time with ticket() or
// tickets(), and the work it stands for kept outside the heap. Three
// models do so, and each keeps the exact (when, seq) order the engine
// would have dispatched: the DMA engine's write runs (served at the next
// touch point, never an event), a scheduler task's end work (run first
// inside the HPU-release event, under the ticket its own event would
// have drawn), and open-loop arrival schedules (each source keeps only
// its next arrival in the heap, placed with schedule_ticketed() under a
// ticket drawn at setup, and each arrival arms the next; see
// sim::ArrivalFeed).

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "sim/trace/trace.hpp"

namespace netddt::sim {

/// Event callback with 64 bytes of inline storage — enough for every
/// lambda the NIC/DMA/link/scheduler models schedule (the largest
/// captures `this` + a receive-state pointer + a 40-byte p4::Packet by
/// value). Larger callables still work but heap-allocate; the engine
/// counts those in callback_heap_allocs() so perf tests can assert the
/// hot path stays allocation-free.
using InlineCallback = InlineFunction<void(), 64>;

class Engine {
 public:
  using Callback = InlineCallback;

  Engine() {
    heap_.reserve(kInitialHeapCapacity);
    free_slots_.reserve(kInitialHeapCapacity);
  }

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time. Negative delays
  /// are clamped to zero (events cannot fire in the past).
  void schedule(Time delay, Callback fn) {
    if (delay < 0) delay = 0;
    place(now_ + delay, next_seq_++, std::move(fn));
  }

  /// Schedule `fn` at absolute time `when`. Precondition, checked
  /// (NETDDT_CHECK): `when >= now()`.
  void schedule_at(Time when, Callback fn) {
    NETDDT_CHECK(when >= now_, "event scheduled for t=" +
                                   std::to_string(when) +
                                   " ps, before now=" +
                                   std::to_string(now_) + " ps");
    place(when, next_seq_++, std::move(fn));
  }

  /// Schedule `fn` at absolute time `when` under `seq`, a ticket drawn
  /// earlier with ticket()/tickets() and not yet used: it dispatches
  /// exactly where an event scheduled at the draw would have. A source
  /// of precomputed arrivals draws all its tickets up front and keeps
  /// only its next arrival in the heap. Preconditions, checked
  /// (NETDDT_CHECK): `seq` was drawn (it is below the next seq to draw)
  /// and `when >= now()`. Reusing a ticket is the caller's error.
  void schedule_ticketed(Time when, std::uint64_t seq, Callback fn) {
    NETDDT_CHECK(seq < next_seq_, "ticketed event under seq " +
                                      std::to_string(seq) +
                                      ", never drawn (next seq " +
                                      std::to_string(next_seq_) + ")");
    NETDDT_CHECK(when >= now_, "ticketed event (seq " + std::to_string(seq) +
                                   ") scheduled for t=" +
                                   std::to_string(when) +
                                   " ps, before now=" +
                                   std::to_string(now_) + " ps");
    place(when, seq, std::move(fn));
  }

  /// Draw the next sequence number without scheduling anything. A model
  /// that keeps its own time-ordered work (the DMA engine's write runs)
  /// stamps each item with a ticket, so (when, ticket) orders the item
  /// exactly as an event scheduled at that moment would be ordered.
  std::uint64_t ticket() { return next_seq_++; }
  /// Draw `n` consecutive tickets; returns the first.
  std::uint64_t tickets(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Seq of the event being dispatched: an item stamped (when, seq) was
  /// due before it iff (when, seq) < (now(), current_seq()). Between
  /// runs it reads 0 before the first run and, after run()/run_until()
  /// return, the next seq as of that return — everything scheduled at
  /// <= now() has run, anything scheduled later has not.
  std::uint64_t current_seq() const { return current_seq_; }

  /// Run until the event queue drains. Returns the time of the last event.
  Time run() {
    const auto wall_start = std::chrono::steady_clock::now();
    while (!heap_.empty()) step();
    current_seq_ = next_seq_;
    wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
    return now_;
  }

  /// Run until the queue drains or simulated time would pass `deadline`.
  /// Events at exactly `deadline` still execute. Time always advances to
  /// `deadline` (even when the next event lies beyond it), so repeated
  /// run_until calls observe a monotone clock.
  Time run_until(Time deadline) {
    const auto wall_start = std::chrono::steady_clock::now();
    while (!heap_.empty() && heap_.front().when <= deadline) step();
    if (now_ < deadline) now_ = deadline;
    current_seq_ = next_seq_;
    wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
    return now_;
  }

  /// Attach an event tracer (nullptr detaches). Dispatch spans and the
  /// pending-queue counter are only emitted when the tracer's
  /// engine_events option is set — they are per-event and very noisy.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) engine_track_ = tracer_->track("engine");
  }
  trace::Tracer* tracer() const { return tracer_; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  /// High-watermark of the pending-event queue over the engine's
  /// lifetime (exposed as the `sim.engine.queue_depth` gauge).
  std::size_t max_pending() const { return max_pending_; }
  std::uint64_t executed() const { return executed_; }

  /// Number of scheduled callbacks that exceeded InlineCallback's inline
  /// storage and fell back to the heap. Deterministic (a function of the
  /// callables scheduled, not of timing); the models keep it at zero.
  std::uint64_t callback_heap_allocs() const { return callback_heap_allocs_; }

  /// Wall-clock nanoseconds accumulated inside run()/run_until().
  std::uint64_t wall_ns() const { return wall_ns_; }

  /// Scheduled-callback size histogram: buckets 0-3 are inline
  /// callables of (bucket+1)*16 bytes or less, bucket 4 is the heap
  /// fallback. Deterministic; rendered by bench/engine_perf.
  static constexpr std::size_t kSizeBuckets = 5;
  const std::array<std::uint64_t, kSizeBuckets>& callback_size_hist() const {
    return size_hist_;
  }
  static const char* size_bucket_name(std::size_t i) {
    static constexpr const char* kNames[kSizeBuckets] = {
        "le16B", "le32B", "le48B", "le64B", "heap"};
    return kNames[i];
  }

  /// Dispatch throughput over the engine's lifetime: executed() events
  /// divided by wall-clock time spent in run()/run_until(). Wall-clock
  /// derived — nondeterministic — so it must never feed simulated
  /// results, only the perf telemetry (`sim.engine.events_per_sec`).
  double events_per_sec() const {
    return wall_ns_ > 0
               ? static_cast<double>(executed_) * 1e9 /
                     static_cast<double>(wall_ns_)
               : 0.0;
  }

 private:
  // A run keeps a few events in flight per packet; 1024 slots cover the
  // deepest queue the benchmark configs reach without any regrowth.
  static constexpr std::size_t kInitialHeapCapacity = 1024;

  // Heap entries are 24-byte PODs; the callback itself is parked in a
  // chunked slab so push_heap/pop_heap shuffles never move callable
  // storage and dispatch invokes it in place (chunks never relocate). A
  // callback is copied exactly once after construction — into its slot.
  // Freed slots recycle through free_slots_, so steady state allocates
  // nothing per event (bench/engine_perf measures this).
  struct Event {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kChunkShift = 8;  // 256 callbacks/chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static std::size_t size_bucket(const Callback& fn) {
    if (fn.heap_allocated()) return kSizeBuckets - 1;
    const std::size_t size = fn.callable_size();
    return size == 0 ? 0 : std::min<std::size_t>((size - 1) / 16,
                                                 kSizeBuckets - 2);
  }

  Callback& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  void place(Time when, std::uint64_t seq, Callback&& fn) {
    if (fn.heap_allocated()) ++callback_heap_allocs_;
    ++size_hist_[size_bucket(fn)];
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = slot_count_++;
      if ((slot >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Callback[]>(1u << kChunkShift));
      }
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slot_ref(slot) = std::move(fn);
    heap_.push_back(Event{when, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    max_pending_ = std::max(max_pending_, heap_.size());
  }

  void step() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event ev = heap_.back();
    heap_.pop_back();
    assert(ev.when >= now_);
    now_ = ev.when;
    current_seq_ = ev.seq;
    ++executed_;
    // Invoked in place: slab chunks never relocate, and the slot is only
    // released afterwards, so events the callback schedules cannot reuse
    // or move the running callable.
    Callback& fn = slot_ref(ev.slot);
    if (tracer_ != nullptr && tracer_->engine_events_on()) {
      tracer_->begin(engine_track_, "dispatch", now_);
      fn();
      tracer_->end(engine_track_, "dispatch", now_);
      tracer_->counter(engine_track_, "pending", now_,
                       static_cast<double>(heap_.size()));
    } else {
      fn();
    }
    fn.reset();
    free_slots_.push_back(ev.slot);
  }

  std::vector<Event> heap_;
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t current_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t callback_heap_allocs_ = 0;
  std::uint64_t wall_ns_ = 0;
  std::array<std::uint64_t, kSizeBuckets> size_hist_{};
  std::size_t max_pending_ = 0;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t engine_track_ = 0;
};

}  // namespace netddt::sim
