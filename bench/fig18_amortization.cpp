// Fig 18: how many times a datatype must be reused to amortize the
// RW-CP checkpoint creation cost. The checkpoints are buffer-independent
// (they encode stream positions, not addresses), so the cost is paid
// once per datatype; each reuse saves (host unpack - RW-CP) time.
// Paper: in 75% of the cases < 4 reuses pay off.

#include <algorithm>
#include <cmath>
#include <vector>

#include "apps/workloads.hpp"
#include "bench/lib/experiment.hpp"
#include "offload/runner.hpp"
#include "sim/stats.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(fig18, "datatype reuses to amortize checkpoint creation") {
  std::vector<double> reuses;
  auto workloads = apps::fig16_workloads();
  if (params.smoke && workloads.size() > 4) workloads.resize(4);

  // (RW-CP, host) pair per workload, fanned out through the pool.
  bench::Sweep<offload::ReceiveRun> sweep(params.executor);
  for (const auto& w : workloads) {
    for (auto kind : {StrategyKind::kRwCp, StrategyKind::kHostUnpack}) {
      sweep.submit([type = w.type, count = w.count, kind] {
        offload::ReceiveConfig cfg;
        cfg.type = type;
        cfg.count = count;
        cfg.verify = false;
        cfg.strategy = kind;
        return offload::run_receive(cfg);
      });
    }
  }
  auto runs = sweep.collect();
  for (std::size_t i = 0; i < runs.size(); i += 2) {
    const auto& rw_run = runs[i];
    report.counters(rw_run.metrics);
    const auto& rw = rw_run.result;
    const auto& host = runs[i + 1].result;

    const double gain = static_cast<double>(host.msg_time - rw.msg_time);
    if (gain <= 0.0) continue;  // no win -> never amortizes; not plotted
    reuses.push_back(std::ceil(
        static_cast<double>(rw.host_setup_time) / gain));
  }
  std::sort(reuses.begin(), reuses.end());

  sim::Log2Histogram hist(1.0, 8);
  for (double r : reuses) hist.add(std::max(r, 1.0));
  report.text("histogram of required reuses:\n" + hist.to_string("x"));
  const double p75 = sim::percentile(reuses, 75.0);
  auto& t = report.table("required reuses", {"percentile", "reuses"});
  t.row({bench::cell("p75"), bench::cell(p75, 0)});
  report.note("paper: < 4 reuses in 75% of cases");
}

NETDDT_BENCH_MAIN()
