// Ablation: line-rate scaling. The paper targets a 200 Gbit/s NIC; this
// sweep asks where each strategy stops keeping up as link speed grows
// to 400/800 Gbit/s (and how much headroom exists at 100 G) with the
// same 16-HPU handler complex — the "careful selection of offloaded
// tasks" question of the introduction, quantified.

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(ablation_linerate,
                  "line-rate scaling (2 MiB vector, 256 B blocks, 16 HPUs)") {
  constexpr std::uint64_t kMessage = 2ull << 20;
  const std::int64_t kBlock =
      static_cast<std::int64_t>(params.blocks_or(256));
  const StrategyKind kinds[] = {StrategyKind::kSpecialized,
                                StrategyKind::kRwCp,
                                StrategyKind::kHostUnpack};

  std::vector<double> rates = {100.0, 200.0, 400.0, 800.0};
  if (params.smoke) rates = {200.0, 400.0};
  if (params.line_rate) rates = {*params.line_rate};

  std::vector<std::string> columns = {"link(Gb/s)"};
  for (auto k : kinds) {
    columns.emplace_back(strategy_name(k));
    columns.emplace_back("eff%");
  }
  auto& t = report.table("throughput vs link rate", columns).unit("Gbit/s");

  for (double rate : rates) {
    std::vector<bench::Cell> row = {bench::cell(rate, 0)};
    for (auto kind : kinds) {
      offload::ReceiveConfig cfg;
      cfg.type = ddt::Datatype::hvector(
          static_cast<std::int64_t>(kMessage) / kBlock, kBlock, 2 * kBlock,
          ddt::Datatype::int8());
      cfg.strategy = kind;
      cfg.hpus = params.hpus_or(16);
      cfg.verify = false;
      cfg.cost.line_rate_gbps = rate;
      // PCIe must scale with the link for the sweep to isolate the
      // handler complex (x32 Gen4 -> Gen5/Gen6 equivalents).
      cfg.cost.pcie_bw_gbps = rate * 2.52;
      const auto run = offload::run_receive(cfg);
      report.counters(run.metrics);
      const double tput = run.result.throughput_gbps();
      row.push_back(bench::cell(tput, 1));
      row.push_back(bench::cell(100.0 * tput / rate, 0, "%"));
    }
    t.row(std::move(row));
  }
  report.note("the specialized handler tracks the link until the HPU "
              "complex saturates; RW-CP falls off earlier; the host "
              "baseline is flat — faster links only widen the offload win");
}

NETDDT_BENCH_MAIN()
