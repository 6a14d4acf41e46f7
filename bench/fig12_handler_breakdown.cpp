// Fig 12: payload-handler runtime breakdown (init / setup / processing)
// per strategy, for gamma = 1..16 contiguous regions per packet (vector
// datatype, 4 MiB message, 16 HPUs).
//
// Paper shape: HPU-local is dominated by setup (the catch-up over the
// other vHPUs' packets); RO-CP spends init on the checkpoint copy and
// long catch-up in setup; RW-CP is only ~2x the specialized handler.

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(fig12,
                  "payload handler runtime breakdown (us) vs regions/packet") {
  constexpr std::uint64_t kMessage = 4ull << 20;
  const StrategyKind kinds[] = {StrategyKind::kHpuLocal, StrategyKind::kRoCp,
                                StrategyKind::kRwCp,
                                StrategyKind::kSpecialized};
  const std::uint32_t hpus = params.hpus_or(16);
  std::vector<int> gammas = {1, 2, 4, 8, 16};
  if (params.smoke) gammas = {1, 16};

  for (auto kind : kinds) {
    auto& t = report
                  .table(std::string(strategy_name(kind)),
                         {"gamma", "init", "setup", "processing", "total"})
                  .unit("us");
    for (int gamma : gammas) {
      const std::int64_t block = 2048 / gamma;
      offload::ReceiveConfig cfg;
      cfg.type = ddt::Datatype::hvector(
          static_cast<std::int64_t>(kMessage) / block, block, 2 * block,
          ddt::Datatype::int8());
      cfg.strategy = kind;
      cfg.hpus = hpus;
      cfg.verify = false;
      cfg.trace = params.trace_config();
      auto run = offload::run_receive(cfg);
      const auto& r = run.result;
      report.counters(run.metrics);
      params.observe(report, std::move(run.tracer),
                     "fig12/" + std::string(strategy_name(kind)) + "/g" +
                         std::to_string(gamma));
      t.row({bench::cell(gamma), bench::cell(sim::to_us(r.handler_init), 3),
             bench::cell(sim::to_us(r.handler_setup), 3),
             bench::cell(sim::to_us(r.handler_processing), 3),
             bench::cell(sim::to_us(r.handler_init + r.handler_setup +
                                    r.handler_processing),
                         3)});
    }
  }
  report.note("paper: HPU-local setup-bound (catch-up); RO-CP init includes "
              "the segment copy, 87% catch-up at gamma=16; RW-CP ~2x "
              "specialized");
}

NETDDT_BENCH_MAIN()
