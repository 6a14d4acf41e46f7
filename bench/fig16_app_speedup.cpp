// Fig 16: message processing speedup over host-based unpacking for the
// application-derived datatypes (RW-CP, Specialized, Portals4-iovec).
// Each row reports gamma, the host baseline T, the message size S, and
// each strategy's speedup with the NIC descriptor bytes (the paper's
// bar annotations: dataloops+checkpoints / specialized parameters /
// iovec entries).
//
// Paper shape: up to ~10-12x for RW-CP and specialized; no speedup for
// single-packet messages (first COMB inputs); a slowdown at gamma = 512
// (SPEC-OC); iovec competitive only at small region counts.

#include "apps/workloads.hpp"
#include "bench/lib/experiment.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(fig16, "app-DDT speedup over host unpacking") {
  auto& t = report.table(
      "speedup per workload",
      {"app", "ddt", "in", "gamma", "T(us)", "S(KiB)", "RW-CP", "toNIC",
       "Spec", "toNIC", "iovec", "toNIC"});

  auto workloads = apps::fig16_workloads();
  if (params.smoke && workloads.size() > 4) workloads.resize(4);

  // 4 runs per workload (host baseline + 3 offload strategies), all
  // independent: fan out, then assemble rows in submission order.
  const std::uint64_t seed = params.seed_or(1);
  constexpr StrategyKind kOffloadKinds[] = {
      StrategyKind::kRwCp, StrategyKind::kSpecialized, StrategyKind::kIovec};
  bench::Sweep<offload::ReceiveRun> sweep(params.executor);
  for (const auto& w : workloads) {
    auto submit = [&](StrategyKind kind) {
      sweep.submit([type = w.type, count = w.count, seed, kind] {
        offload::ReceiveConfig cfg;
        cfg.type = type;
        cfg.count = count;
        cfg.seed = seed;
        cfg.verify = false;
        cfg.strategy = kind;
        return offload::run_receive(cfg);
      });
    };
    submit(StrategyKind::kHostUnpack);
    for (auto kind : kOffloadKinds) submit(kind);
  }
  auto runs = sweep.collect();

  std::size_t i = 0;
  for (const auto& w : workloads) {
    const auto h = runs[i++].result;

    std::vector<bench::Cell> row = {
        bench::cell(w.app), bench::cell(w.ddt_kind),
        bench::cell(std::string(1, w.input)), bench::cell(h.gamma, 1),
        bench::cell(sim::to_us(h.msg_time), 1),
        bench::cell(static_cast<double>(h.message_bytes) / 1024.0, 1)};

    for ([[maybe_unused]] auto kind : kOffloadKinds) {
      const auto& run = runs[i++];
      report.counters(run.metrics);
      const auto& r = run.result;
      const double speedup = static_cast<double>(h.msg_time) /
                             static_cast<double>(r.msg_time);
      row.push_back(bench::cell(speedup, 2, "x"));
      row.push_back(
          bench::cell_bytes(static_cast<double>(r.nic_descriptor_bytes)));
    }
    t.row(std::move(row));
  }
  report.note("paper: up to ~10-12x; ~1x for single-packet messages; "
              "slowdown at gamma=512 (SPEC-OC); iovec descriptor size is "
              "linear in the region count");
}

NETDDT_BENCH_MAIN()
