// Fig 17: histogram of main-memory data volume needed to receive and
// unpack a message, RW-CP vs host-based unpacking, over the Fig 16
// experiments. Paper: RW-CP moves 3.8x less data (geometric mean) —
// offloading writes the message once, host unpacking re-reads the
// packed stream and fills + writes back every destination line.

#include <vector>

#include "apps/workloads.hpp"
#include "bench/lib/experiment.hpp"
#include "offload/runner.hpp"
#include "sim/stats.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(fig17, "main-memory traffic: RW-CP vs host unpacking") {
  sim::Log2Histogram rw_hist(1.0, 16), host_hist(1.0, 16);
  std::vector<double> rw_vol, host_vol;
  auto workloads = apps::fig16_workloads();
  if (params.smoke && workloads.size() > 4) workloads.resize(4);

  auto& t = report.table("transfer volume per workload",
                         {"app", "ddt", "RW-CP(KiB)", "host(KiB)"});
  // Two independent runs per workload; fan out, consume in order.
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
  std::size_t i = 0;
  for (const auto& w : workloads) {
    const auto& rw_run = runs[i++];
    report.counters(rw_run.metrics);
    const auto& host_run = runs[i++];
    report.counters(host_run.metrics);

    rw_vol.push_back(
        static_cast<double>(rw_run.result.host_traffic_bytes) / 1024.0);
    host_vol.push_back(
        static_cast<double>(host_run.result.host_traffic_bytes) / 1024.0);
    rw_hist.add(rw_vol.back());
    host_hist.add(host_vol.back());
    t.row({bench::cell(w.app), bench::cell(w.ddt_kind),
           bench::cell(rw_vol.back(), 1), bench::cell(host_vol.back(), 1)});
  }

  report.text("RW-CP transfer volumes (KiB):\n" + rw_hist.to_string("KiB"));
  report.text("Host transfer volumes (KiB):\n" + host_hist.to_string("KiB"));
  const double gm_rw = sim::geomean(rw_vol);
  const double gm_host = sim::geomean(host_vol);
  auto& g = report.table("geomean", {"strategy", "KiB"});
  g.row({bench::cell("RW-CP"), bench::cell(gm_rw, 1)});
  g.row({bench::cell("host"), bench::cell(gm_host, 1)});
  g.row({bench::cell("host/RW-CP"), bench::cell(gm_host / gm_rw, 1, "x")});
  report.note("paper: host-based unpacking moves 3.8x more data (geomean)");
}

NETDDT_BENCH_MAIN()
