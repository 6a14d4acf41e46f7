// Fig 15: DMA write-request queue size over time for gamma = 16 (128 B
// blocks), per strategy, plus the host overhead window (checkpoint
// creation + copy) that precedes the RO/RW-CP receive.
//
// Paper shape: HPU-local and RO-CP have slow handlers -> few requests in
// flight; RW-CP and specialized have fast handlers -> higher peaks.

#include <algorithm>

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(fig15,
                  "DMA queue size over time, gamma = 16 (128 B blocks)") {
  constexpr std::uint64_t kMessage = 4ull << 20;
  const std::int64_t kBlock =
      static_cast<std::int64_t>(params.blocks_or(128));
  const StrategyKind kinds[] = {StrategyKind::kHpuLocal, StrategyKind::kRoCp,
                                StrategyKind::kRwCp,
                                StrategyKind::kSpecialized};

  for (auto kind : kinds) {
    offload::ReceiveConfig cfg;
    cfg.type = ddt::Datatype::hvector(
        static_cast<std::int64_t>(kMessage) / kBlock, kBlock, 2 * kBlock,
        ddt::Datatype::int8());
    cfg.strategy = kind;
    cfg.hpus = params.hpus_or(16);
    cfg.verify = false;
    // The downsampled occupancy table below is built from the event
    // trace, so events are always on for this figure; --trace/
    // --percentiles additionally export/summarize it.
    cfg.trace = params.trace_config();
    cfg.trace.events = true;
    auto run = offload::run_receive(cfg);
    report.counters(run.metrics);
    params.observe(report, std::move(run.tracer),
                   "fig15/" + std::string(strategy_name(kind)));

    // Downsample the trace into 16 buckets of max occupancy.
    const auto& trace = run.dma_trace;
    auto& t = report
                  .table(std::string(strategy_name(kind)) +
                             " (host overhead before receive: " +
                             bench::cell(
                                 sim::to_us(run.result.host_setup_time), 1)
                                 .text +
                             " us)",
                         {"t(us)", "max depth"})
                  .unit("16-bucket downsample");
    if (trace.empty()) continue;
    const sim::Time span = trace.back().first + 1;
    constexpr int kBuckets = 16;
    std::size_t peak[kBuckets] = {};
    for (const auto& [when, depth] : trace) {
      const auto b = static_cast<int>(when * kBuckets / span);
      peak[std::min(b, kBuckets - 1)] =
          std::max(peak[std::min(b, kBuckets - 1)], depth);
    }
    for (int b = 0; b < kBuckets; ++b) {
      t.row({bench::cell(sim::to_us(span * (b + 1) / kBuckets), 0),
             bench::cell(peak[b])});
    }
  }
  report.note("paper: slow handlers (HPU-local, RO-CP) keep the queue low; "
              "RW-CP/specialized peak higher; host overhead only for the "
              "checkpointed strategies");
}

NETDDT_BENCH_MAIN()
