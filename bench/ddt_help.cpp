// ddt_help: "Do MPI Derived Datatypes Actually Help?" — the measured
// companion study of the flat-program work, over the shared benchmark
// layouts (bench/lib/layouts.hpp, same shapes as pack_kernels and
// micro_primitives).
//
// Table 1 reports what the program compiler made of each layout: leaf
// runs vs fused ops, gather-table size, bytes moved per op, and the
// NIC-descriptor footprint of the program. Table 2 runs the specialized
// receive strategy end-to-end under both byte engines and compares
// simulated throughput and NIC memory. Both tables are deterministic.
//
// With --perf the experiment also times one real chunked host pack pass
// per layout and engine and reports the wall-clock GB/s through
// report.perf — nondeterministic, so it never enters the default JSON
// (pack_kernels is the archived/gated version of that measurement).

#include <chrono>

#include "bench/lib/experiment.hpp"
#include "bench/lib/layouts.hpp"
#include "dataloop/packer.hpp"
#include "offload/runner.hpp"

using namespace netddt;

namespace {

// One chunked host pack pass (2 KiB packets, the verify/sender
// granularity); returns wall GB/s.
double host_pack_gbps(const dataloop::CompiledDataloop& loops,
                      std::shared_ptr<const dataloop::FlatProgram> prog,
                      std::vector<std::byte>& src,
                      std::vector<std::byte>& out) {
  dataloop::Packer packer(loops, src, std::move(prog));
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t at = 0;
  while (!packer.done()) {
    at += packer.pack(std::span<std::byte>(out).subspan(
        at, std::min<std::uint64_t>(2048, out.size() - at)));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(out.size()) / secs / 1e9;
}

}  // namespace

NETDDT_EXPERIMENT(ddt_help,
                  "do derived datatypes help? program shapes + "
                  "specialized receive, interpreter vs program") {
  const std::uint32_t hpus = params.hpus_or(16);
  const std::uint64_t seed = params.seed_or(1);

  auto layouts = bench::layouts::standard_layouts();
  if (params.smoke) {
    layouts = {layouts[1], layouts[4]};  // vec_64B + indexed_irregular
  }

  auto& shapes = report
                     .table("program shape", {"layout", "leaf runs", "ops",
                                              "table", "fused%", "B/op",
                                              "descr(KiB)"})
                     .unit("per instance");
  for (const auto& l : layouts) {
    dataloop::CompiledDataloop loops(l.type, l.count);
    const auto prog = dataloop::compile_program(loops);
    if (prog == nullptr) continue;  // over ProgramLimits: interpreter-only
    const auto& s = prog->stats();
    shapes.row({bench::cell(l.name), bench::cell(s.leaf_runs),
                bench::cell(s.ops), bench::cell(s.table_entries),
                bench::cell(100.0 * s.fused_run_ratio(), 1),
                bench::cell(s.bytes_per_op(), 1),
                bench::cell(static_cast<double>(prog->descriptor_bytes()) /
                                1024.0,
                            2)});
  }

  // End-to-end specialized receives, both engines, fanned out through
  // the pool (runs consumed in submission order -> --jobs invariant).
  const dataloop::PackEngine engines[] = {
      dataloop::PackEngine::kInterpreter, dataloop::PackEngine::kProgram};
  bench::Sweep<offload::ReceiveRun> sweep(params.executor);
  const auto tc = params.trace_config();
  for (const auto& l : layouts) {
    for (auto engine : engines) {
      sweep.submit([&l, engine, hpus, seed, tc] {
        offload::ReceiveConfig cfg;
        cfg.type = l.type;
        cfg.count = l.count;
        cfg.strategy = offload::StrategyKind::kSpecialized;
        cfg.pack_engine = engine;
        cfg.hpus = hpus;
        cfg.seed = seed;
        cfg.verify = false;  // correctness covered by tests + fuzz oracle
        cfg.trace = tc;
        return offload::run_receive(cfg);
      });
    }
  }
  auto runs = sweep.collect();

  auto& t = report
                .table("specialized receive: interpreter vs program",
                       {"layout", "interp(Gbit/s)", "program(Gbit/s)",
                        "interp descr(KiB)", "program descr(KiB)"})
                .unit("simulated");
  std::size_t i = 0;
  for (const auto& l : layouts) {
    const auto& ri = runs[i++];
    const auto& rp = runs[i++];
    report.counters(ri.metrics);
    report.counters(rp.metrics);
    params.observe(report, std::move(runs[i - 2].tracer),
                   "ddt_help/interpreter/" + l.name);
    params.observe(report, std::move(runs[i - 1].tracer),
                   "ddt_help/program/" + l.name);
    t.row({bench::cell(l.name),
           bench::cell(ri.result.throughput_gbps(), 1),
           bench::cell(rp.result.throughput_gbps(), 1),
           bench::cell(
               static_cast<double>(ri.result.nic_descriptor_bytes) / 1024.0,
               2),
           bench::cell(
               static_cast<double>(rp.result.nic_descriptor_bytes) / 1024.0,
               2)});
  }

  // Real wall-clock host pack throughput (perf section only; archived
  // and gated via pack_kernels, this is the in-report view).
  for (const auto& l : layouts) {
    dataloop::CompiledDataloop loops(l.type, l.count);
    const auto prog = dataloop::compile_program(loops);
    std::vector<std::byte> src(bench::layouts::buffer_bytes(l.type, l.count));
    std::vector<std::byte> out(loops.total_bytes());
    report.perf("pack_gbps." + l.name + ".interpreter",
                host_pack_gbps(loops, nullptr, src, out));
    if (prog != nullptr) {
      report.perf("pack_gbps." + l.name + ".program",
                  host_pack_gbps(loops, prog, src, out));
    }
  }

  report.note("fused ops shrink both per-packet dispatch and NIC "
              "descriptors on strided layouts; gather tables trade "
              "memory for dispatch on irregular ones");
}

NETDDT_BENCH_MAIN()
