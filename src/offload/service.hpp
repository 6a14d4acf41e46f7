#pragma once
// Steady-state service: many concurrent receives per tenant, offered by
// an open-loop arrival process, flowing through the MPI facade (plan
// cache, LRU eviction, host fallback) onto one NIC. A schedule on the
// message driver (offload/driver.hpp): Poisson arrivals plus an
// admission window over its post (a facade post) and offer.
//
// Where run_receive() measures a single message in isolation, this
// schedule measures the NIC *as a service*: tenants post receives on
// their own clocks, messages queue at the sender's one injection port
// (every send on the run's point-to-point fabric serializes behind the
// previous ones), handler state competes for HPUs and NIC memory, and
// the interesting outputs are sustained goodput, per-tenant fairness
// (Jain's index), and completion-time tails.
//
// Backpressure: at most `max_inflight` messages are admitted (receive
// posted + packets queued) at once — the model of a finite receive
// window. Arrivals beyond it wait in FIFO order and are admitted as
// messages retire (counted per tenant in `backpressured`). Admission is
// driven by the driver's completion hook, so the loop closes inside
// the simulation with no wall-clock dependence.
//
// Receive slots: like a receiver reposting a bounded set of match-entry
// buffers, each tenant recycles its host slots. A message takes the
// most recently freed slot (or a fresh one) and returns it, zeroed, at
// the driver's release, after verification. A lossless run so touches
// at most one slot per tenant more than its peak in flight, however
// many messages it offers; a lossy run holds each slot to the drain (a
// late duplicate may still land), so it touches one per message. Slot
// bases stay 64-byte aligned, as the host-unpack estimate depends on
// the alignment mod 64.
//
// Determinism: arrival schedules are pure functions of (config, tenant
// index) — see sim/arrivals.hpp — and everything else is the ordinary
// deterministic DES machinery, so a ServiceRun is byte-identical across
// repeats and --jobs layouts for a fixed config.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ddt/datatype.hpp"
#include "offload/driver.hpp"
#include "offload/facade.hpp"
#include "p4/put.hpp"
#include "sim/arrivals.hpp"
#include "sim/faults/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/trace/histogram.hpp"
#include "sim/trace/trace.hpp"
#include "spin/cost_model.hpp"
#include "spin/nic.hpp"

namespace netddt::offload {

struct ServiceTenant {
  ddt::TypePtr type;
  std::uint64_t count = 1;
  TypeAttributes attrs{};          // facade attributes (priority, epsilon)
  sim::ArrivalConfig arrivals{};
  std::uint64_t messages = 256;    // messages this tenant offers
};

struct ServiceConfig {
  std::vector<ServiceTenant> tenants;
  spin::CostModel cost{};
  std::uint32_t hpus = 16;
  std::uint64_t nicmem_bytes = 4ull << 20;
  /// Admission window: receives posted + in flight at any instant.
  std::uint64_t max_inflight = 1024;
  std::uint64_t seed = 1;
  /// Verify every Nth completed message of each tenant (0 disables):
  /// its regions must hold the sent stream (regions_hold_stream).
  /// Sampled because full verification of thousands of messages would
  /// dominate the run.
  std::uint64_t verify_every = 16;
  /// Wire fault injection. When active(), every message goes through
  /// the reliable transport on the same injection port
  /// (fabric::Fabric::send_reliable), so drops, duplicates and
  /// reorders compose with open-loop queueing; a put that exhausts its
  /// retries retires as `failed` and frees its admission slot. Inert by
  /// default — the run is byte-identical to pre-fault behavior.
  sim::faults::FaultConfig faults{};
  /// Retransmission policy; only read when `faults` is active.
  p4::RetransmitConfig retransmit{};
  /// Observability (events / stage stats / blame ledger). All-off by
  /// default: an untelemetried run constructs no Tracer and its output
  /// is byte-identical to PR 6 behavior.
  sim::trace::TraceConfig trace{};
  /// TelemetrySampler period in picoseconds (0 = no sampler). Samples
  /// land in "telemetry.*" series of ServiceRun::metrics and, when
  /// `trace.events` is on, as Perfetto counter tracks.
  sim::Time telemetry_period = 0;
};

struct TenantStats {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;         // reliable puts that exhausted retries
  std::uint64_t backpressured = 0;  // arrivals that waited for admission
  std::uint64_t host_fallbacks = 0;
  std::uint64_t bytes = 0;          // payload bytes completed
  std::uint64_t host_slots = 0;     // receive slots ever held at once
  sim::Time first_arrival = 0;
  sim::Time last_done = 0;
  double goodput_gbps = 0.0;
  /// Completion time (arrival -> unpack done, includes admission wait).
  sim::trace::Histogram completion;
};

struct ServiceRun {
  std::vector<TenantStats> tenants;
  double goodput_gbps = 0.0;  // aggregate sustained goodput
  double fairness = 1.0;      // Jain's index over per-tenant goodputs
  sim::Time makespan = 0;     // first arrival -> last completion
  std::uint64_t peak_inflight = 0;
  std::uint64_t verified = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t evictions = 0;       // facade plan evictions
  std::uint64_t host_fallbacks = 0;  // facade host-unpack fallbacks
  std::uint64_t put_failures = 0;    // messages that never completed
  /// The engine's pending-event high-watermark (Engine::max_pending):
  /// arrivals enter the heap one per tenant, so it follows the in-flight
  /// work, not the message count.
  std::size_t engine_peak_pending = 0;
  sim::MetricsSnapshot metrics;
  /// Critical-path decomposition of every completed message, completion
  /// order, when `config.trace.blame` (see sim/trace/blame.hpp); empty
  /// otherwise. Copied out of the ledger so it survives handing
  /// `tracer` to a collector.
  std::vector<sim::trace::BlameAttribution> blame;
  /// The run's tracer when `config.trace.any()`, else null.
  std::unique_ptr<sim::trace::Tracer> tracer;
};

ServiceRun run_service(const ServiceConfig& config);

/// One tenant's receive slots (see "Receive slots" above): slots laid
/// end to end from `first`, reused most recently released first.
class SlotPool {
 public:
  explicit SlotPool(const Window& first) : first_(first) {}

  /// The most recently released slot, or the next fresh one.
  Window take();
  /// Zero `slot`'s whole window in `memory` (host memory from address
  /// 0) and make it the next take(). Every post then sees the all-zero
  /// window a fresh calloc'd slot shows, so stale bytes of an earlier
  /// occupant (packed_message_pattern repeats with the seed mod 256)
  /// cannot mask a missing write.
  void release(const Window& slot, std::span<std::byte> memory);
  /// Fresh slots handed out: the most the tenant ever held at once.
  std::uint64_t fresh() const { return fresh_; }

 private:
  Window first_;  // slot k sits k * first_.bytes past this one
  std::uint64_t fresh_ = 0;
  std::vector<std::int64_t> free_;  // released bases, most recent last
};

}  // namespace netddt::offload
