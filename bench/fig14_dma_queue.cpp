// Fig 14: maximum DMA write-request queue occupancy over the message
// processing time, per strategy and gamma, annotated with the total
// number of DMA writes. Paper: the PCIe request buffer stays under 160
// requests — PCIe is not the bottleneck.

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(fig14, "max DMA queue occupancy vs regions/packet") {
  constexpr std::uint64_t kMessage = 4ull << 20;
  const StrategyKind kinds[] = {StrategyKind::kSpecialized,
                                StrategyKind::kRwCp, StrategyKind::kRoCp,
                                StrategyKind::kHpuLocal};
  const std::uint32_t hpus = params.hpus_or(16);
  std::vector<int> gammas = {1, 2, 4, 8, 16};
  if (params.smoke) gammas = {1, 16};

  std::vector<std::string> columns = {"gamma"};
  for (auto k : kinds) columns.emplace_back(strategy_name(k));
  columns.emplace_back("total writes");
  auto& t = report.table("max dma queue occupancy", columns);

  // Independent (gamma, strategy) points: fan out, consume in order.
  bench::Sweep<offload::ReceiveRun> sweep(params.executor);
  const auto tc = params.trace_config();
  for (int gamma : gammas) {
    const std::int64_t block = 2048 / gamma;
    for (auto kind : kinds) {
      sweep.submit([block, kind, hpus, tc] {
        offload::ReceiveConfig cfg;
        cfg.type = ddt::Datatype::hvector(
            static_cast<std::int64_t>(kMessage) / block, block, 2 * block,
            ddt::Datatype::int8());
        cfg.strategy = kind;
        cfg.hpus = hpus;
        cfg.verify = false;
        cfg.trace = tc;
        return offload::run_receive(cfg);
      });
    }
  }
  auto runs = sweep.collect();

  std::size_t i = 0;
  for (int gamma : gammas) {
    std::vector<bench::Cell> row = {bench::cell(gamma)};
    std::uint64_t total = 0;
    for (auto kind : kinds) {
      auto& run = runs[i++];
      report.counters(run.metrics);
      row.push_back(bench::cell(run.result.dma_queue_peak));
      total = run.result.dma_writes;
      params.observe(report, std::move(run.tracer),
                     "fig14/" + std::string(strategy_name(kind)) + "/g" +
                         std::to_string(gamma));
    }
    row.push_back(bench::cell(total));
    t.row(std::move(row));
  }
  report.note("paper: queue stays < 160 requests in all cases");
}

NETDDT_BENCH_MAIN()
