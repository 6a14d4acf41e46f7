// Ablation: in-network reduction vs host-side reduction. The offloaded
// path combines stream elements into the destination on the NIC
// (spin::HandlerFamily::kReduce, RMW DMA landings); the baseline lands
// the same stream in a bounce buffer over plain RDMA and pays a
// CPU-side reduction pass (offload::host_compute_estimate). Both runs
// verify bit-identical against the shared host reference
// (ComputePlan::host_reference), lossless and lossy — so every
// throughput number in these tables is also a correctness proof.
//
// The wire-transform table measures the second compute family: the
// sender quantizes (f64->f32, f32->i8), the wire carries the narrow
// stream, and the receiving handler dequantizes — same logical bytes
// delivered, 2-4x fewer bytes on the wire.

#include <cmath>

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"
#include "spin/compute.hpp"

using namespace netddt;
using offload::StrategyKind;
using spin::ComputeConfig;
using spin::HandlerFamily;
using spin::QuantScheme;

namespace {

offload::ReceiveConfig base_config(std::uint64_t bytes,
                                   const bench::Params& params) {
  offload::ReceiveConfig cfg;
  cfg.type = ddt::Datatype::contiguous(
      static_cast<std::int64_t>(bytes / 4),
      ddt::Datatype::elementary(4, "f32"));
  cfg.hpus = params.hpus_or(16);
  cfg.seed = params.seed_or(17);
  return cfg;
}

}  // namespace

NETDDT_EXPERIMENT(ablation_reduce,
                  "offloaded vs host reduction (f32 sum): bandwidth vs "
                  "message size, lossless + lossy, and quantized wire "
                  "savings") {
  std::vector<std::uint64_t> sizes = {16ull << 10, 64ull << 10,
                                      256ull << 10, 1ull << 20,
                                      4ull << 20};
  if (params.smoke) sizes = {16ull << 10, 256ull << 10};

  // Lossy wire for the second table: light loss + heavy duplication, so
  // the RMW replay gate is load-bearing for the reported numbers.
  sim::faults::FaultConfig defaults;
  defaults.drop_rate = 0.01;
  defaults.dup_rate = 0.05;
  defaults.reorder_rate = 0.02;
  defaults.seed = 99;
  const sim::faults::FaultConfig lossy = params.faults_or(defaults);

  ComputeConfig reduce_cc;  // f32 streaming sum
  reduce_cc.family = HandlerFamily::kReduce;
  reduce_cc.elem = spin::ElemType::kFloat32;

  bench::Sweep<offload::ReceiveRun> sweep(params.executor);
  for (const std::uint64_t bytes : sizes) {
    for (const bool faulty : {false, true}) {
      for (const bool offloaded : {true, false}) {
        offload::ReceiveConfig cfg = base_config(bytes, params);
        cfg.strategy =
            offloaded ? StrategyKind::kRwCp : StrategyKind::kHostUnpack;
        cfg.compute = reduce_cc;
        if (faulty) cfg.faults = lossy;
        sweep.submit([cfg] { return offload::run_receive(cfg); });
      }
    }
    // Wire transforms, lossless: same logical bytes, narrow wire.
    for (const QuantScheme q :
         {QuantScheme::kF64ToF32, QuantScheme::kF32ToI8}) {
      offload::ReceiveConfig cfg = base_config(bytes, params);
      const std::uint64_t h = spin::quant_host_elem(q);
      cfg.type = ddt::Datatype::contiguous(
          static_cast<std::int64_t>(bytes / h),
          ddt::Datatype::elementary(h, "elem"));
      cfg.strategy = StrategyKind::kRwCp;
      ComputeConfig cc;
      cc.family = HandlerFamily::kTransform;
      cc.quant = q;
      cfg.compute = cc;
      sweep.submit([cfg] { return offload::run_receive(cfg); });
    }
  }
  const auto runs = sweep.collect();  // submission order

  auto& lossless = report.table(
      "reduce throughput (lossless)",
      {"size", "offload", "host", "speedup"});
  lossless.unit("Gbit/s e2e; all runs verified vs the host reference");
  auto& faulty = report.table(
      "reduce throughput (lossy wire)",
      {"size", "offload", "host", "speedup", "dups-suppressed"});
  faulty.unit("Gbit/s e2e; 1% drop, 5% dup, 2% reorder");
  auto& wire = report.table(
      "quantized wire bytes (lossless)",
      {"size", "raw", "f64->f32", "f32->i8", "f64->f32 goodput",
       "f32->i8 goodput"});
  wire.unit("wire bytes per message; goodput Gbit/s of logical bytes");

  double log_speedup_large = 0.0;
  int large_points = 0;
  const std::uint64_t large_floor = params.smoke ? 256ull << 10
                                                 : 1ull << 20;
  std::size_t at = 0;
  for (const std::uint64_t bytes : sizes) {
    for (const bool is_lossy : {false, true}) {
      const auto& off = runs[at++];
      const auto& host = runs[at++];
      report.counters(off.metrics);
      report.counters(host.metrics);
      const double off_gbps = off.result.throughput_gbps();
      const double host_gbps = host.result.throughput_gbps();
      const double speedup = off_gbps / host_gbps;
      auto mark = [](const offload::ReceiveRun& r, double gbps) {
        return bench::cell(bench::cell(gbps, 2).text +
                               (r.result.verified ? "" : "!"),
                           bench::Json{gbps});
      };
      std::vector<bench::Cell> row = {bench::cell_bytes(bytes),
                                      mark(off, off_gbps),
                                      mark(host, host_gbps),
                                      bench::cell(speedup, 2)};
      if (is_lossy) {
        row.push_back(bench::cell(
            off.metrics.counter("nic.compute.dup_suppressed")));
        faulty.row(std::move(row));
      } else {
        lossless.row(std::move(row));
        if (bytes >= large_floor) {
          log_speedup_large += std::log(speedup);
          ++large_points;
        }
      }
    }
    const auto& f32 = runs[at++];
    const auto& i8 = runs[at++];
    report.counters(f32.metrics);
    report.counters(i8.metrics);
    auto good = [](const offload::ReceiveRun& r) {
      return bench::cell(bench::cell(r.result.throughput_gbps(), 2).text +
                             (r.result.verified ? "" : "!"),
                         bench::Json{r.result.throughput_gbps()});
    };
    wire.row({bench::cell_bytes(bytes),
              bench::cell_bytes(bytes),  // raw wire == logical
              bench::cell_bytes(f32.result.wire_bytes),
              bench::cell_bytes(i8.result.wire_bytes),
              good(f32), good(i8)});
  }

  const double geomean =
      large_points > 0 ? std::exp(log_speedup_large / large_points) : 0.0;
  auto& summary = report.table("summary", {"metric", "value"});
  summary.row({bench::cell("offload/host speedup geomean (large, "
                           "lossless)"),
               bench::cell(geomean, 3)});
  report.note("the offloaded reduction combines elements as packets "
              "arrive, so the CPU pass (and its extra pass over main "
              "memory) disappears from the critical path; quantized "
              "transforms shrink wire bytes 2-4x while the delivered "
              "logical bytes verify bit-identical after dequantization");
}

NETDDT_BENCH_MAIN()
