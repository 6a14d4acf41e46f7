#include "goal/fft2d.hpp"

#include <cmath>
#include <string>

#include "ddt/datatype.hpp"
#include "fabric/collectives.hpp"
#include "offload/host_model.hpp"
#include "offload/runner.hpp"
#include "sim/check.hpp"

namespace netddt::goal {
namespace {

constexpr std::uint64_t kComplexBytes = 16;  // complex double

/// The transpose receive datatype for one peer's block: rows x rows
/// complex elements scattered column-wise into the local n-column array.
ddt::TypePtr transpose_type(std::uint64_t n, std::uint32_t nodes) {
  const std::int64_t rows = static_cast<std::int64_t>(n / nodes);
  return ddt::Datatype::hvector(
      rows, static_cast<std::int64_t>(rows * kComplexBytes),
      static_cast<std::int64_t>(n * kComplexBytes), ddt::Datatype::int8());
}

/// One synchronized packet-level alltoall at `nodes` endpoints: the
/// per-round makespan (ps) of a `block`-byte pairwise exchange through
/// the fabric's switches, every receiver running the full NIC pipeline
/// (DDT unpack when `offload`, plain RDMA otherwise).
sim::Time fabric_alltoall_time(std::uint32_t nodes, std::uint64_t block,
                               bool offload) {
  fabric::CollectiveConfig cc;
  cc.kind = fabric::CollectiveKind::kAlltoall;
  cc.fabric.topology.nodes = nodes;
  cc.block_bytes = block;
  cc.rounds = 1;
  cc.arrivals.rate = 1e9;  // ~ns offer skew: one synchronized round
  cc.offload = offload;
  cc.verify = false;
  const auto run = fabric::run_collective(cc);
  return static_cast<sim::Time>(run.round_us.front() * 1e6);
}

void check_divisible(const Fft2dConfig& config, const char* who) {
  NETDDT_CHECK(config.nodes > 0 && config.n % config.nodes == 0,
               std::string(who) + ": n " + std::to_string(config.n) +
                   " is not a multiple of nodes " +
                   std::to_string(config.nodes));
}

}  // namespace

Fft2dResult run_fft2d(const Fft2dConfig& config) {
  check_divisible(config, "run_fft2d");
  const std::uint64_t rows = config.n / config.nodes;
  const std::uint32_t peers = config.nodes - 1;

  Fft2dResult res;
  res.nodes = config.nodes;

  // Two 1D-FFT phases over the local rows: 5 n log2 n flops per row.
  const double flops_per_row =
      5.0 * static_cast<double>(config.n) *
      std::log2(static_cast<double>(config.n));
  const double compute_s = 2.0 * static_cast<double>(rows) * flops_per_row /
                           (config.flops_gflops * 1e9);
  res.compute = static_cast<sim::Time>(compute_s * 1e12);

  // All-to-all (one per transpose, two transposes per run): linear
  // exchange of rows x rows blocks with every peer. Fixed per-message
  // overheads and the byte-transfer term are kept separate so NIC
  // processing can only stretch the latter.
  const std::uint64_t block_bytes = rows * rows * kComplexBytes;
  const sim::Time overhead_term =
      static_cast<sim::Time>(peers) * (config.net.o + config.net.g) +
      config.net.L;
  const sim::Time bytes_term =
      static_cast<sim::Time>(peers) *
      sim::transfer_time(block_bytes, config.net.G_gbps);

  auto type = transpose_type(config.n, config.nodes);
  const spin::CostModel cost;

  if (config.net_model == NetModel::kFabric) {
    // Packet-level alltoall: measure two small block sizes at the real
    // node count (full switch contention + receiver NIC pipelines), fit
    // T(b) = F + K*b, evaluate at the transpose block — the full-size
    // exchange is gigabytes per node, so the fabric is sampled, not
    // replayed end-to-end. Offloaded runs land through the NIC DDT
    // pipeline inside the measurement, so datatype processing is part
    // of `communicate`; the host baseline adds the CPU unpack per peer
    // message, exactly as on the LogGP path.
    const bool offloaded =
        config.unpack != offload::StrategyKind::kHostUnpack;
    const std::uint64_t b1 = 4 << 10, b2 = 8 << 10;
    const auto t1 = fabric_alltoall_time(config.nodes, b1, offloaded);
    const auto t2 = fabric_alltoall_time(config.nodes, b2, offloaded);
    const double slope = std::max(
        0.0, static_cast<double>(t2 - t1) / static_cast<double>(b2 - b1));
    const double fixed =
        std::max(0.0, static_cast<double>(t1) -
                          slope * static_cast<double>(b1));
    const auto per_alltoall = static_cast<sim::Time>(
        fixed + slope * static_cast<double>(block_bytes));
    sim::Time unpack = 0;
    if (!offloaded) {
      unpack = static_cast<sim::Time>(peers) *
               offload::host_unpack_estimate(*type, 1, cost).unpack_time;
    }
    res.communicate = 2 * per_alltoall;
    res.unpack = 2 * unpack;
    res.total = res.compute + res.communicate + res.unpack;
    return res;
  }

  sim::Time unpack_per_alltoall = 0;
  sim::Time comm_per_alltoall = overhead_term + bytes_term;
  if (config.unpack == offload::StrategyKind::kHostUnpack) {
    // The CPU unpacks each peer's message after it lands.
    const auto est = offload::host_unpack_estimate(*type, 1, cost);
    unpack_per_alltoall =
        static_cast<sim::Time>(peers) * est.unpack_time;
  } else {
    // Offloaded: datatype processing happens as packets stream through
    // the NIC. Measure the sustained NIC unpack rate on a multi-packet
    // stream (replicating small messages so fixed latencies do not
    // pollute the rate), stretch the byte-transfer term when the NIC
    // is the bottleneck, and expose one pipeline-drain tail.
    offload::ReceiveConfig rc;
    rc.type = type;
    rc.count = std::max<std::uint64_t>(
        1, (128ull << 10) / std::max<std::uint64_t>(type->size(), 1));
    rc.strategy = config.unpack;
    rc.verify = false;
    const auto run1 = offload::run_receive(rc);
    rc.count *= 2;
    const auto run2 = offload::run_receive(rc);
    // Two-point fit: the slope is the sustained NIC unpack rate; the
    // remainder of the short run is the fixed pipeline-drain tail.
    const double sustained_gbps = sim::throughput_gbps(
        run2.result.message_bytes - run1.result.message_bytes,
        run2.result.msg_time - run1.result.msg_time);
    const double stretch =
        std::max(1.0, cost.line_rate_gbps / std::max(sustained_gbps, 1.0));
    const sim::Time tail = std::max<sim::Time>(
        run1.result.msg_time -
            static_cast<sim::Time>(
                stretch * static_cast<double>(
                              cost.wire_time(run1.result.message_bytes))),
        0);
    comm_per_alltoall =
        overhead_term +
        static_cast<sim::Time>(static_cast<double>(bytes_term) * stretch);
    unpack_per_alltoall = tail;
  }

  res.communicate = 2 * comm_per_alltoall;
  res.unpack = 2 * unpack_per_alltoall;
  res.total = res.compute + res.communicate + res.unpack;
  return res;
}

namespace {

/// Sustained-rate stretch + pipeline tail of the offloaded unpack,
/// measured once per (n, nodes) with the NIC simulation.
struct OffloadCosts {
  double stretch = 1.0;
  sim::Time tail = 0;
};

OffloadCosts measure_offload(const Fft2dConfig& config) {
  const spin::CostModel cost;
  auto type = transpose_type(config.n, config.nodes);
  offload::ReceiveConfig rc;
  rc.type = type;
  rc.count = std::max<std::uint64_t>(
      1, (128ull << 10) / std::max<std::uint64_t>(type->size(), 1));
  rc.strategy = config.unpack;
  rc.verify = false;
  const auto run1 = offload::run_receive(rc);
  rc.count *= 2;
  const auto run2 = offload::run_receive(rc);
  OffloadCosts out;
  const double sustained = sim::throughput_gbps(
      run2.result.message_bytes - run1.result.message_bytes,
      run2.result.msg_time - run1.result.msg_time);
  out.stretch =
      std::max(1.0, cost.line_rate_gbps / std::max(sustained, 1.0));
  out.tail = std::max<sim::Time>(
      run1.result.msg_time -
          static_cast<sim::Time>(
              out.stretch *
              static_cast<double>(cost.wire_time(run1.result.message_bytes))),
      0);
  return out;
}

}  // namespace

Fft2dResult run_fft2d_trace(const Fft2dConfig& config) {
  check_divisible(config, "run_fft2d_trace");
  const std::uint32_t p = config.nodes;
  const std::uint64_t rows = config.n / p;
  const std::uint64_t block_bytes = rows * rows * kComplexBytes;

  const double flops_per_row =
      5.0 * static_cast<double>(config.n) *
      std::log2(static_cast<double>(config.n));
  const auto fft_time = static_cast<sim::Time>(
      static_cast<double>(rows) * flops_per_row /
      (config.flops_gflops * 1e9) * 1e12);

  const bool host_unpack =
      config.unpack == offload::StrategyKind::kHostUnpack;
  const spin::CostModel cost;
  sim::Time unpack_per_msg = 0;
  std::uint64_t wire_bytes = block_bytes;
  if (host_unpack) {
    auto type = transpose_type(config.n, config.nodes);
    unpack_per_msg = offload::host_unpack_estimate(*type, 1, cost)
                         .unpack_time;
  } else {
    const auto oc = measure_offload(config);
    // NIC-limited unpack stretches the message's wire occupancy; the
    // pipeline-drain tail shows up once per message as a tiny calc.
    wire_bytes = static_cast<std::uint64_t>(
        static_cast<double>(block_bytes) * oc.stretch);
    unpack_per_msg = oc.tail;
  }

  // Build the GOAL-style schedule: fft, alltoall (+unpack), fft,
  // alltoall (+unpack).
  std::vector<Schedule> ranks(p);
  for (std::uint32_t r = 0; r < p; ++r) {
    Schedule& s = ranks[r];
    std::uint32_t barrier = s.calc(fft_time);
    for (int phase = 0; phase < 2; ++phase) {
      const auto tag = static_cast<std::uint32_t>(phase + 1);
      std::vector<std::uint32_t> done;
      done.reserve(2 * (p - 1));
      for (std::uint32_t step = 1; step < p; ++step) {
        // Shifted peer order avoids everyone hammering rank 0 first.
        const std::uint32_t peer = (r + step) % p;
        done.push_back(s.send(wire_bytes, peer, tag, {barrier}));
        const auto rx = s.recv(wire_bytes, peer, tag, {barrier});
        done.push_back(unpack_per_msg > 0
                           ? s.calc(unpack_per_msg, {rx})
                           : rx);
      }
      barrier = s.calc(phase == 0 ? fft_time : 0, std::move(done));
    }
  }

  const auto run = run_loggp(ranks, config.net);
  Fft2dResult res;
  res.nodes = p;
  res.total = run.makespan;
  res.compute = 2 * fft_time;
  res.unpack = 2 * static_cast<sim::Time>(p - 1) * unpack_per_msg;
  res.communicate = res.total - res.compute - res.unpack;
  return res;
}

std::vector<ScalingPoint> fft2d_scaling(
    std::uint64_t n, const std::vector<std::uint32_t>& nodes,
    NetModel net_model) {
  std::vector<ScalingPoint> out;
  out.reserve(nodes.size());
  for (std::uint32_t p : nodes) {
    Fft2dConfig host_cfg;
    host_cfg.n = n;
    host_cfg.nodes = p;
    host_cfg.net_model = net_model;
    host_cfg.unpack = offload::StrategyKind::kHostUnpack;
    Fft2dConfig off_cfg = host_cfg;
    off_cfg.unpack = offload::StrategyKind::kRwCp;

    ScalingPoint pt;
    pt.nodes = p;
    pt.host = run_fft2d(host_cfg);
    pt.offloaded = run_fft2d(off_cfg);
    pt.speedup_percent =
        100.0 *
        (static_cast<double>(pt.host.total) -
         static_cast<double>(pt.offloaded.total)) /
        static_cast<double>(pt.host.total);
    out.push_back(pt);
  }
  return out;
}

}  // namespace netddt::goal
