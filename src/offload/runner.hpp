#pragma once
// Single-receive experiment: the simplest schedule on the message driver
// (offload/driver.hpp). A two-node point-to-point world, one post (the
// forced strategy, a compute plan, or the host baseline's packed bounce
// landing) and one offer at t = 0; then the quantities the paper's
// figures plot, read from the receiving NIC's metrics.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dataloop/program.hpp"
#include "ddt/datatype.hpp"
#include "offload/strategy.hpp"
#include "p4/put.hpp"
#include "sim/faults/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/trace/trace.hpp"
#include "spin/compute.hpp"
#include "spin/cost_model.hpp"

namespace netddt::offload {

struct ReceiveConfig {
  ddt::TypePtr type;
  std::uint64_t count = 1;
  StrategyKind strategy = StrategyKind::kRwCp;
  spin::CostModel cost{};
  std::uint32_t hpus = 16;
  std::uint64_t nicmem_bytes = 4ull << 20;
  /// Byte engine for the functional copy paths (verification unpack and
  /// the specialized strategy's handler). The default interpreter keeps
  /// output byte-identical to historical runs; kProgram executes the
  /// compiled flat program (dataloop/program.hpp), fusing adjacent DMA
  /// regions and publishing `dataloop.program.*` stats.
  dataloop::PackEngine pack_engine = dataloop::PackEngine::kInterpreter;
  double epsilon = 0.2;  // RW/RO-CP scheduling-overhead budget
  std::uint64_t pkt_buffer_bytes = 512ull << 10;
  /// Reorder payload packets within windows of this many slots (0 = in
  /// order). Exercises segment resets / checkpoint rollback.
  std::uint32_t ooo_window = 0;
  std::uint64_t seed = 1;
  /// Wire fault injection (drop/dup/reorder rates + fault seed). When
  /// active() the message goes through the reliable transport
  /// (fabric::Fabric::send_reliable on the point-to-point link) and
  /// `ooo_window` is ignored — a put that exhausts its retries makes
  /// run_receive throw; when inert (all rates zero, the default) the run
  /// is byte-identical to a build without the fault layer.
  sim::faults::FaultConfig faults{};
  /// Retransmission policy of the reliable transport; only read when
  /// `faults` is active.
  p4::RetransmitConfig retransmit{};
  /// In-network compute request (docs/HANDLERS.md). When set (and the
  /// strategy is not kHostUnpack) the receive installs a ComputePlan
  /// context instead of a byte-moving strategy: the stream carries typed
  /// elements (fill_typed — or their quantized wire form for kTransform)
  /// and verification compares against the compute host reference. With
  /// kHostUnpack the stream lands in the bounce buffer as usual and the
  /// CPU-side reduction estimate is added to the reported times — the
  /// ablation_reduce baseline. Runs without `compute` are byte-identical
  /// to builds without the compute subsystem.
  std::optional<spin::ComputeConfig> compute;
  /// Check the receive and set ReceiveResult::verified. Byte-moving
  /// receives compare the type's regions only (regions_hold_stream:
  /// gather them back into a stream, compare with what was sent); the
  /// host baseline compares its bounce buffer with the stream, and
  /// compute receives compare the whole buffer with the host reference.
  /// Bytes in a byte-moving type's gaps are not checked here: catching
  /// a stray write there is the differential fuzz oracle's job, which
  /// compares whole `keep_buffer` buffers.
  bool verify = true;
  /// Copy the final receive buffer into ReceiveRun::buffer so callers
  /// (the differential fuzz oracle) can compare whole buffers across
  /// strategies, not just the typed regions.
  bool keep_buffer = false;
  /// Event/stats tracing (zero-cost when left default-disabled).
  /// `trace.events` also records the Fig 15 DMA queue-depth trace.
  sim::trace::TraceConfig trace{};
};

struct ReceiveRun {
  ReceiveResult result;
  std::vector<std::pair<sim::Time, std::size_t>> dma_trace;
  /// Everything the NIC-layer components and the offload strategy
  /// published during the run ("nic.*" / "offload.*" / "sim.*" scopes);
  /// the fields in `result` are views into the same data.
  sim::MetricsSnapshot metrics;
  /// The run's tracer when `config.trace.any()`, else null. Holds the
  /// event timeline and the per-stage latency histograms; export with
  /// sim/trace/chrome.hpp.
  std::unique_ptr<sim::trace::Tracer> tracer;
  /// Critical-path decomposition of the message when `config.trace.blame`
  /// (stage times sum to the simulated end-to-end latency; the host
  /// baseline's CPU unpack happens after the simulation and is not a
  /// ledger stage).
  std::optional<sim::trace::BlameAttribution> blame;
  /// Final receive buffer when `config.keep_buffer` (host bounce area
  /// excluded). Byte 0 is the lowest addressable byte of the layout;
  /// a type region at offset `off` lives at `buffer_shift + off`.
  std::vector<std::byte> buffer;
  /// Bytes the receive window was shifted so negative-lb layouts stay
  /// inside the buffer (= max(0, -min(lb, true_lb))).
  std::int64_t buffer_shift = 0;
};

/// Run one receive. Throws std::runtime_error naming the msg id when the
/// message never completes — under faults, when a packet of the put
/// exhausts `retransmit.max_retries`.
ReceiveRun run_receive(const ReceiveConfig& config);

/// Gather the `count` instances of `type` laid out at `base` (the address
/// of type offset 0) into the count * type->size() bytes at `out`.
/// kInterpreter gathers with ddt::pack, kProgram with the compiled flat
/// program in `window`-byte stream windows (the packet payload), falling
/// back to ddt::pack when the type has no program.
void pack_stream(const std::byte* base, const ddt::TypePtr& type,
                 std::uint64_t count, dataloop::PackEngine engine,
                 std::uint64_t window, std::byte* out);

/// The byte-moving receive check: pack_stream the regions at `base` and
/// compare the stream with `packed`, the bytes that were sent. Only the
/// type's regions are read; gap bytes never affect the result. For a
/// type whose regions are disjoint (receive types must be) this is the
/// same as comparing each region with the reference unpack.
bool regions_hold_stream(const std::byte* base, const ddt::TypePtr& type,
                         std::uint64_t count,
                         std::span<const std::byte> packed,
                         dataloop::PackEngine engine, std::uint64_t window);

/// The deterministic packed stream run_receive sends (a pure function of
/// length and `ReceiveConfig::seed`). Exposed so differential oracles can
/// compute the expected receive buffer with ddt::unpack and compare it
/// against ReceiveRun::buffer.
std::vector<std::byte> packed_message_pattern(std::uint64_t bytes,
                                              std::uint64_t seed);

}  // namespace netddt::offload
