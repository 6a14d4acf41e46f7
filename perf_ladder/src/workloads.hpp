#pragma once
// The five perf_ladder workloads. Each one is a fixed set of inputs
// built from the seed; a pass runs every simulation call of the
// workload once, on the calling thread, byte-verifying every receive.
//
//   vector_sweep         Fig 8: one closed-loop receive at a time of a
//                        4 MiB hvector (stride = 2 x block), blocks
//                        {16, 128, 2048} B, five strategies.
//   app_ddts             Fig 16: every apps::fig16_workloads() datatype
//                        under Host, RW-CP, Specialized and iovec.
//   service_poisson      run_service: a strided and a contiguous tenant,
//                        16 KiB messages, open-loop Poisson at 0.8 of the
//                        line rate, admission window 1024.
//   fabric_alltoall      run_collective alltoall, 64-node fat-tree, 8 KiB
//                        blocks, 4 rounds, open-loop load 0.8, lossless.
//   fabric_reduce_lossy  reduce_scatter on the same fabric at load 0.5
//                        with 2 % drop, 2 % dup and 5 % reorder.
//
// The seed fills the payload bytes of the closed-loop sweeps and the
// fabric collectives. Arrival schedules and fault plans are constants
// of each workload, and no simulated cost depends on payload bytes, so
// the simulated section is the same for every seed and repeats exactly
// across passes: regression runs at different seeds compare simulated
// metrics exactly. service_poisson does not use the seed, because
// run_service draws its payload and its arrival streams from one
// ServiceConfig::seed.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/lib/json.hpp"
#include "common.hpp"
#include "sim/trace/blame.hpp"
#include "spans.hpp"

namespace perf_ladder {

struct PassOptions {
  /// Turn the simulator's stage statistics and blame ledger on.
  bool trace = false;
  /// Build the simulated section (PassResult::simulated).
  bool summarize = false;
  SpanRecorder* spans = nullptr;
};

/// Raw simulated per-layer sums of one pass; main turns them into the
/// per-layer ratios. Layers a workload does not run stay zero:
/// run_collective publishes no NIC registry or blame ledger, and the
/// single-link workloads have no fabric.
struct SimLayers {
  std::vector<netddt::sim::trace::BlameAttribution> blame;
  std::uint64_t nic_pkts = 0;
  std::uint64_t dma_writes = 0;
  std::uint64_t deferred = 0;
  std::uint64_t checkpoint_copies = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t catchup_blocks = 0;
  std::uint64_t evictions = 0;
  std::uint64_t host_fallbacks = 0;
  double handler_ps = 0.0;   // HPU time spent in handlers
  double hpu_ps = 0.0;       // HPU time available (hpus x duration)
  std::uint64_t wire_pkts = 0;       // fabric: packets injected
  std::uint64_t hop_passes = 0;      // fabric: output-port passes
  std::uint64_t queue_wait_ps = 0;   // fabric: port FIFO wait
  std::uint64_t blocked = 0;         // fabric: full-FIFO backpressure
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  double pkt_serialization_ps = 0.0;  // one full packet at line rate
};

struct PassResult {
  std::uint64_t attempted = 0;  // receives offered and verified
  std::uint64_t failed = 0;     // put failures + verification mismatches
  std::uint64_t packets = 0;    // simulated wire packets
  /// Posted receives the matching unit held at the pass's peak.
  std::uint64_t posted_depth = 1;
  Digest digest;                // every simulated quantity observed
  /// Host seconds of each simulation call of the pass, in call order.
  std::vector<double> call_s;
  netddt::bench::Json simulated;     // when PassOptions::summarize
  netddt::bench::Json layer_detail;  // per-point blame when traced
  SimLayers layers;
};

/// Per-layer metrics that need simulations of their own, with the
/// receives those simulations verified.
struct ExtraLayers {
  std::vector<std::pair<std::string, double>> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual PassResult pass(const PassOptions& opts) = 0;

  /// The datatype layouts the workload receives into.
  virtual std::vector<Layout> layouts() const = 0;

  /// The service's load grid; empty for the other workloads.
  virtual ExtraLayers extra_layers(SpanRecorder& /*spans*/) { return {}; }
};

const std::vector<std::string>& workload_names();

/// service_poisson's load grid (fractions of the line rate), in order.
std::vector<double> service_load_grid();

/// Build `name`'s inputs from `seed`; null for an unknown name. `smoke`
/// shrinks every size so the whole ladder runs in seconds.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke);

}  // namespace perf_ladder
