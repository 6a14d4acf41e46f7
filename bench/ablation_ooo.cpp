// Ablation: out-of-order packet delivery sensitivity (paper Secs 3.2.4
// discuss the per-strategy OOO penalties: HPU-local resets its local
// segment, RW-CP rolls a checkpoint back to the master copy, RO-CP and
// the specialized handlers are stateless and unaffected).

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(ablation_ooo,
                  "out-of-order delivery (1 MiB vector, 128 B blocks)") {
  constexpr std::uint64_t kMessage = 1ull << 20;
  const std::int64_t kBlock =
      static_cast<std::int64_t>(params.blocks_or(128));
  const StrategyKind kinds[] = {StrategyKind::kSpecialized,
                                StrategyKind::kRwCp, StrategyKind::kRoCp,
                                StrategyKind::kHpuLocal};

  std::vector<std::uint32_t> windows = {0, 2, 4, 8, 16, 32};
  if (params.smoke) windows = {0, 8};

  std::vector<std::string> columns = {"ooo-window"};
  for (auto k : kinds) columns.emplace_back(strategy_name(k));
  auto& t = report.table("message time", columns)
                .unit("us; all runs verified");

  for (std::uint32_t window : windows) {
    std::vector<bench::Cell> row = {bench::cell(window)};
    for (auto kind : kinds) {
      offload::ReceiveConfig cfg;
      cfg.type = ddt::Datatype::hvector(
          static_cast<std::int64_t>(kMessage) / kBlock, kBlock, 2 * kBlock,
          ddt::Datatype::int8());
      cfg.strategy = kind;
      cfg.hpus = params.hpus_or(16);
      cfg.ooo_window = window;
      cfg.seed = params.seed_or(17);
      const auto run = offload::run_receive(cfg);
      report.counters(run.metrics);
      const auto& r = run.result;
      row.push_back(bench::cell(
          bench::cell(sim::to_us(r.msg_time), 1).text +
              (r.verified ? "" : "!"),
          bench::Json{sim::to_us(r.msg_time)}));
    }
    t.row(std::move(row));
  }
  report.note("stateless handlers (specialized, RO-CP) are insensitive; "
              "RW-CP pays master-copy rollbacks + catch-up; HPU-local "
              "pays full segment resets");
}

NETDDT_BENCH_MAIN()
