#pragma once
// NIC-to-host DMA engine over the PCIe model.
//
// Handlers push fire-and-forget DMA write requests (paper Sec 2.1.4);
// the engine services them in arrival order: each request costs a fixed
// per-request overhead plus payload / PCIe bandwidth, and lands in host
// memory one PCIe write latency after service (RMW requests add the read
// turnaround). Queue occupancy — requests arrived but not yet landed —
// is the data behind Fig 14 and Fig 15 and is published into the metrics
// registry under the "nic.dma" scope.
//
// Analytic FIFO: the engine is a single server with deterministic
// service, so a request's whole schedule is known the moment it arrives:
//   begin   = max(arrival, free_at)     free_at = begin + service
//   landing = free_at + pcie_write_latency (+ pcie_rmw_turnaround)
// An arrival retires the landings due by its time, counts the request,
// records its stage latencies, blame intervals and "dma write" span at
// those explicit times, applies the memcpy or RMW combine (in arrival
// order), and parks (landing, msg) in an in-flight FIFO — one for plain
// writes, one for RMW writes, each already sorted by landing time.
//
// Event-free writes: a non-signalled write costs the engine no event.
// It takes an Engine::ticket() and joins the *run* of the event that
// issued it — a handler issues its writes at nondecreasing times with
// increasing tickets, so they stay sorted by (when, ticket); a write
// earlier than its run's tail opens a new one. A min-heap over run
// heads merges the runs, and drain() serves every write ordered before
// the dispatching event's (now, current_seq) — exactly the writes whose
// arrival events the engine would already have dispatched, in that
// order. drain() runs whenever the engine touches the DMA: a new write,
// a signalled write's arrival (the one write that stays an engine
// event, so the landing event it schedules draws its seq in dispatch
// order), a landing event, the sweep, and queue_depth()/drained().
// Landings retire lazily, stamped with their own landing times, at the
// same touch points. The sweep is one self-re-arming event parked on
// max(latest landing, latest pending arrival): it serves the
// stragglers, drains the depth back to 0, closes the Fig 15 series, and
// keeps Engine::run() ending at the last landing. Tie rule: landings at
// time t retire before an arrival at t is counted.
//
// Write trains: write_train() stands for `count` plain writes with a
// constant issue step, host stride and block size (a handler walking a
// vector's whole blocks). It checks the first and last write once,
// takes `count` tickets and becomes its own entry in the run-merge heap
// — a train is already sorted by (when, seq) — so it merges with every
// other run and train exactly as its writes would have one by one, and
// drain() serves each write through the same arrive(): begin, landing,
// depth, blame, "dma write" span and bytes are those of single writes.
// The sweep is armed as the train's first write would have armed it (at
// that write's arrival, with write 0's ticket drawn before the sweep's
// seq and the others' after), so the engine's events are unchanged too.
// Single writes keep their own record and path.
//
// Because arrivals are served at the next touch point, host memory
// shows a write once the DMA has been touched at or after its arrival:
// always before a completion fires and before Engine::run() returns.
// A write's source bytes must stay valid until then; a train's, until
// its last write has arrived.
//
// Tracing: with a Tracer attached (and events on) every occupancy
// change is sampled into the "nic.dma.queue_depth.trace" Series and a
// counter track, each service window becomes a span on the "dma" track,
// each landing an instant carrying its msg id, and the queue-wait /
// PCIe-transfer latencies feed the corresponding stage histograms.
// Without a tracer nothing is recorded.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace/trace.hpp"
#include "spin/compute.hpp"
#include "spin/cost_model.hpp"

namespace netddt::spin {

class DmaEngine {
 public:
  /// Called when a request with `signal_event` completes in host memory.
  using CompletionFn =
      std::function<void(std::uint64_t msg_id, sim::Time when)>;

  /// Counters/gauges go into `metrics` under "nic.dma"; a standalone
  /// engine (tests) may pass nullptr and gets a private registry.
  DmaEngine(sim::Engine& engine, const CostModel& cost,
            std::span<std::byte> host_memory,
            sim::MetricsRegistry* metrics = nullptr);

  void set_completion_callback(CompletionFn fn) { on_complete_ = std::move(fn); }

  /// Attach an event tracer (nullptr detaches). Enables the Fig 15
  /// queue-depth trace and the DMA spans/latency histograms.
  void set_tracer(sim::trace::Tracer* tracer);

  /// Enqueue a DMA write of `src` to host offset `host_off` at the
  /// current simulated time. `src` may be empty (the zero-byte
  /// completion-signal write). When `signal_event` is set, the completion
  /// callback fires once the write lands (the paper's NO_EVENT flag is
  /// the inverted default: handlers suppress events on payload writes).
  void write(std::int64_t host_off, std::span<const std::byte> src,
             bool signal_event, std::uint64_t msg_id);

  /// Same, but enqueued at a future instant (handlers issue DMA commands
  /// part-way through their charged runtime). Preconditions, checked at
  /// issue (NETDDT_CHECK): `when >= now()` and a non-empty `src` fits
  /// the host buffer at `host_off`.
  void write_at(sim::Time when, std::int64_t host_off,
                std::span<const std::byte> src, bool signal_event,
                std::uint64_t msg_id);

  /// Read-modify-write request (compute handler families): the
  /// destination becomes dst[i] = dst[i] (op) src[i] instead of a copy.
  /// Costs dma_rmw_service occupancy plus a pcie_rmw_turnaround on top of
  /// the posted-write latency. Never signals completion (the zero-byte
  /// completion write stays a plain write). Same preconditions.
  void write_rmw_at(sim::Time when, std::int64_t host_off,
                    std::span<const std::byte> src, ReduceOp op,
                    ElemType elem, std::uint64_t msg_id);

  /// A constant-stride train of `count` plain, non-signalled writes:
  /// write i is issued at `when + i * step` and copies `block` bytes
  /// from `src + i * block` to host offset `host_off + i * stride`.
  /// Served, timed, traced and counted exactly like those `count`
  /// write_at() calls. Preconditions, checked once at issue
  /// (NETDDT_CHECK): `when >= now()`, `step >= 0`, and the first and
  /// last write fit the host buffer (so every write between does).
  /// `src` must stay valid until the last write has arrived.
  void write_train(sim::Time when, sim::Time step, std::int64_t host_off,
                   std::int64_t stride, const std::byte* src,
                   std::uint64_t block, std::uint64_t count,
                   std::uint64_t msg_id);

  std::uint64_t total_writes() const { return writes_->value(); }
  std::uint64_t total_bytes() const { return bytes_->value(); }
  /// Requests arrived but not yet landed as of now(); serves the writes
  /// due before the dispatching event and retires the landings due by
  /// now() first.
  std::size_t queue_depth() {
    drain();
    retire(engine_->now());
    return static_cast<std::size_t>(depth_->value());
  }
  std::size_t max_queue_depth() const {
    return static_cast<std::size_t>(depth_->peak());
  }
  /// (time, depth) samples taken at every arrival and landing: Fig 15.
  /// Only recorded while a tracer with events is attached.
  const std::vector<std::pair<sim::Time, double>>& depth_trace() const {
    return trace_->points();
  }
  /// True once every arrived request has landed in host memory.
  bool drained() { return queue_depth() == 0; }

 private:
  struct Request {
    std::int64_t host_off;
    std::span<const std::byte> src;
    bool signal_event;
    // The compute-family fields live in the padding after signal_event:
    // a signalled write's [this, req] fits the engine's 48-byte inline
    // callback bucket.
    bool rmw = false;  // apply `op` over `elem` lanes instead of memcpy
    ReduceOp op = ReduceOp::kSum;
    ElemType elem = ElemType::kInt8;
    std::uint64_t msg_id;
  };
  static_assert(sizeof(Request) == 40, "keep DMA callbacks heap-free");

  struct Landing {
    sim::Time at;
    std::uint64_t msg_id;
  };

  /// A non-signalled write waiting for its arrival; (when, seq) is the
  /// position its arrival event would have had in the engine queue.
  struct Pending {
    sim::Time when;
    std::uint64_t seq;
    Request req;
  };
  /// Writes sorted by (when, seq), served from `next` on. Storage is
  /// recycled through free_runs_, so steady state allocates nothing.
  struct Run {
    std::vector<Pending> writes;
    std::size_t next = 0;
  };
  /// A write_train() not yet fully served: its next write's fields,
  /// advanced in place as writes arrive.
  struct Train {
    sim::Time when;
    sim::Time step;
    std::uint64_t seq;
    std::int64_t host_off;
    std::int64_t stride;
    const std::byte* src;
    std::uint64_t block;
    std::uint64_t left;  // writes not yet served, the next one included
    std::uint64_t msg_id;
  };
  /// Merge-heap entry: the (when, seq) of a run's or a train's next
  /// write; `index` points into runs_ or trains_.
  struct Head {
    sim::Time when;
    std::uint64_t seq;
    std::uint32_t index;
    bool train;
  };
  static constexpr std::uint32_t kNoRun = ~0u;
  // Live trains peak at 32 in the benchmark configs (the Fig 16 app
  // types under RW-CP). The first train reserves that many slots, so a
  // run allocates them once, and an engine that issues no train
  // allocates none.
  static constexpr std::size_t kInitialTrains = 32;

  void enqueue_at(sim::Time when, const Request& req);
  /// Serve every pending write ordered before the dispatching event.
  void drain();
  /// Serve `run`'s or `train`'s writes ordered before (until_when,
  /// until_seq), at least one; return false once the entry is empty.
  bool serve_run(std::uint32_t run, sim::Time until_when,
                 std::uint64_t until_seq);
  bool serve_train(std::uint32_t train, sim::Time until_when,
                   std::uint64_t until_seq);
  void arrive(const Request& req, sim::Time now);
  /// Retire every in-flight landing due by `now`, in landing order.
  void retire(sim::Time now);
  void arm_sweep();
  void sample(sim::Time at);

  sim::Engine* engine_;
  const CostModel* cost_;
  std::span<std::byte> host_;
  CompletionFn on_complete_;

  sim::Time free_at_ = 0;       // when the server finishes its backlog
  sim::Time last_landing_ = 0;  // latest landing ever scheduled
  std::deque<Landing> plain_landings_;  // sorted: landing = free_at + c
  std::deque<Landing> rmw_landings_;    // sorted likewise (larger c)
  bool sweep_armed_ = false;

  std::vector<Run> runs_;                // live and recycled write runs
  std::vector<std::uint32_t> free_runs_;
  std::vector<Train> trains_;            // live and recycled trains
  std::vector<std::uint32_t> free_trains_;
  std::vector<Head> heads_;              // min-heap over live entries
  std::uint32_t open_run_ = kNoRun;      // run the next write may extend
  std::uint64_t open_owner_ = 0;         // seq of the event that opened it
  sim::Time last_arrival_ = 0;           // latest pending arrival queued

  std::unique_ptr<sim::MetricsRegistry> local_metrics_;
  sim::Counter* writes_;   // nic.dma.writes
  sim::Counter* bytes_;    // nic.dma.bytes
  sim::Gauge* depth_;      // nic.dma.queue_depth (arrived, not yet landed)
  sim::Series* trace_;     // nic.dma.queue_depth.trace

  sim::trace::Tracer* tracer_ = nullptr;
  std::uint32_t dma_track_ = 0;    // service spans + landing instants
  std::uint32_t queue_track_ = 0;  // occupancy counter track
  double last_depth_emitted_ = -1.0;
};

}  // namespace netddt::spin
