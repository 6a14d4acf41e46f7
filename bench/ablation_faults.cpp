// Ablation: goodput under a lossy wire. The message goes through the
// reliable transport (fabric::Fabric::send_reliable on the
// point-to-point link): dropped attempts are retransmitted after a
// timeout, duplicates and reordered arrivals reach the NIC as-is, and
// the completion packet is held back until every data packet is acked.
// Every run still verifies the receive buffer against the reference
// unpack — the fault layer must never corrupt an unpack, only slow it
// down.

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(ablation_faults,
                  "goodput vs packet-loss rate (1 MiB vector, 128 B "
                  "blocks, lossy wire)") {
  constexpr std::uint64_t kMessage = 1ull << 20;
  const std::int64_t kBlock =
      static_cast<std::int64_t>(params.blocks_or(128));
  const StrategyKind kinds[] = {StrategyKind::kSpecialized,
                                StrategyKind::kRwCp, StrategyKind::kRoCp,
                                StrategyKind::kHpuLocal};

  // Baseline wire: light duplication + reordering on top of the swept
  // drop rate, so every point also exercises the dedup and rollback
  // paths. CLI fault flags override these; a --drop-rate override pins
  // the sweep to that single loss rate.
  sim::faults::FaultConfig defaults;
  defaults.dup_rate = 0.005;
  defaults.reorder_rate = 0.01;
  defaults.seed = 99;
  const sim::faults::FaultConfig base = params.faults_or(defaults);

  std::vector<double> rates = {0.0, 0.001, 0.005, 0.01, 0.05, 0.1};
  if (params.smoke) rates = {0.0, 0.02};
  if (base.drop_rate > 0.0) rates = {base.drop_rate};

  std::vector<std::string> columns = {"drop-rate"};
  for (auto k : kinds) columns.emplace_back(strategy_name(k));
  auto& goodput = report.table("goodput", columns)
                      .unit("Gbit/s e2e; all runs verified");
  auto& wire = report.table("wire events (RW-CP)",
                            {"drop-rate", "dropped", "retransmits",
                             "dup-deliveries", "msg-time"})
                   .unit("packets; msg-time us");

  const std::uint32_t hpus = params.hpus_or(16);
  const std::uint64_t seed = params.seed_or(17);
  bench::Sweep<offload::ReceiveRun> sweep(params.executor);
  for (double rate : rates) {
    for (auto kind : kinds) {
      offload::ReceiveConfig cfg;
      cfg.match_engine =
          params.match_engine_or(p4::MatchEngineKind::kHashed);
      cfg.type = ddt::Datatype::hvector(
          static_cast<std::int64_t>(kMessage) / kBlock, kBlock, 2 * kBlock,
          ddt::Datatype::int8());
      cfg.strategy = kind;
      cfg.hpus = hpus;
      cfg.seed = seed;
      cfg.faults = base;
      cfg.faults.drop_rate = rate;
      sweep.submit([cfg] { return offload::run_receive(cfg); });
    }
  }
  const auto runs = sweep.collect();  // submission order

  std::size_t at = 0;
  for (double rate : rates) {
    std::vector<bench::Cell> row = {bench::cell_percent(rate)};
    for (auto kind : kinds) {
      const auto& run = runs[at++];
      report.counters(run.metrics);
      const auto& r = run.result;
      row.push_back(bench::cell(
          bench::cell(r.throughput_gbps(), 1).text +
              (r.verified ? "" : "!"),
          bench::Json{r.throughput_gbps()}));
      if (kind == StrategyKind::kRwCp) {
        wire.row({bench::cell_percent(rate), bench::cell(r.pkts_dropped),
                  bench::cell(r.retransmits), bench::cell(r.dup_deliveries),
                  bench::cell(sim::to_us(r.msg_time), 1)});
      }
    }
    goodput.row(std::move(row));
  }
  report.note("goodput degrades with the retransmit round trips, not "
              "with the strategy: all unpack paths tolerate drops, "
              "duplicates and reorder and still verify byte-identical");
}

NETDDT_BENCH_MAIN()
