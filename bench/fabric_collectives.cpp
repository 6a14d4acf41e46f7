// Packet-level collectives on the multi-node fabric: goodput and
// completion-time tails (p50/p99/p99.9) of alltoall, allgather and
// reduce-scatter vs offered load, every receiver running the full
// NIC/HPU/DMA pipeline (DDT unpack or streaming reduction), plus a
// lossy section composing the fabric with the reliable transport.
//
// Offered load is expressed as a fraction of the injection line rate:
// each node's arrival process offers rounds of (P-1) block-byte
// messages at a rate chosen so its injection port would be `u` busy if
// the fabric never queued.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/lib/experiment.hpp"
#include "fabric/collectives.hpp"

using namespace netddt;

namespace {

struct Point {
  fabric::CollectiveKind kind;
  double load;
  bool lossy;
};

std::uint64_t counter(const sim::MetricsSnapshot& m, const char* name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

}  // namespace

NETDDT_EXPERIMENT(fabric_collectives,
                  "packet-level fabric collectives: goodput and tails") {
  const std::uint32_t nodes = params.smoke ? 16 : 64;
  const std::uint32_t rounds = params.smoke ? 2 : 4;
  const std::uint64_t block =
      params.blocks_or(params.smoke ? 2048 : 8192);
  const std::uint64_t seed = params.seed_or(42);
  const double line_rate = params.line_rate_or(200.0);
  const auto pack =
      params.pack_engine_or(dataloop::PackEngine::kInterpreter);
  sim::faults::FaultConfig lossy_faults;
  lossy_faults.drop_rate = 0.02;
  lossy_faults.dup_rate = 0.02;
  lossy_faults.reorder_rate = 0.05;
  lossy_faults = params.faults_or(lossy_faults);

  report.param("nodes", bench::Json{nodes});
  report.param("rounds", bench::Json{rounds});
  report.param("topology", bench::Json{std::string("fat-tree")});

  const auto make_config = [&](const Point& p) {
    fabric::CollectiveConfig cc;
    cc.kind = p.kind;
    cc.fabric.topology.nodes = nodes;
    cc.fabric.cost.line_rate_gbps = line_rate;
    cc.block_bytes = block;
    cc.rounds = rounds;
    // Round rate such that one node's injection port is `load` busy:
    // (P-1) blocks of 8*block bits per round.
    cc.arrivals.rate = p.load * line_rate * 1e9 /
                       (static_cast<double>(nodes - 1) *
                        static_cast<double>(block) * 8.0);
    cc.pack_engine = pack;
    cc.seed = seed;
    if (p.lossy) {
      cc.faults = lossy_faults;
    }
    return cc;
  };

  const std::vector<fabric::CollectiveKind> kinds = {
      fabric::CollectiveKind::kAlltoall,
      fabric::CollectiveKind::kAllgather,
      fabric::CollectiveKind::kReduceScatter};
  const std::vector<double> loads =
      params.smoke ? std::vector<double>{0.5} :
                     std::vector<double>{0.2, 0.5, 0.8};

  std::vector<Point> points;
  for (const auto kind : kinds) {
    for (const double load : loads) points.push_back({kind, load, false});
  }
  for (const auto kind : kinds) points.push_back({kind, 0.5, true});

  bench::Sweep<fabric::CollectiveRun> sweep(params.executor);
  for (const Point& p : points) {
    sweep.submit([cfg = make_config(p)] { return run_collective(cfg); });
  }
  auto runs = sweep.collect();

  std::uint64_t verify_failures = 0;
  std::size_t i = 0;
  auto& a = report.table(
      "fabric a: goodput and tails vs offered load (lossless)",
      {"collective", "load", "goodput(Gb/s)", "p50(us)", "p99(us)",
       "p99.9(us)", "verified"});
  for (const auto kind : kinds) {
    for (const double load : loads) {
      const auto& r = runs[i++];
      verify_failures += r.mismatched_windows;
      report.counters(r.fabric_metrics);
      a.row({bench::cell(std::string(fabric::collective_name(kind))),
             bench::cell(load, 1), bench::cell(r.goodput_gbps, 2),
             bench::cell(r.p50_us, 2), bench::cell(r.p99_us, 2),
             bench::cell(r.p999_us, 2),
             bench::cell(r.verified_windows)});
    }
  }

  auto& b = report.table(
      "fabric b: lossy wire at load 0.5 (reliable transport composed)",
      {"collective", "completed", "failed", "retransmits", "drops",
       "goodput(Gb/s)", "p99(us)"});
  for (const auto kind : kinds) {
    const auto& r = runs[i++];
    verify_failures += r.mismatched_windows;
    report.counters(r.fabric_metrics);
    b.row({bench::cell(std::string(fabric::collective_name(kind))),
           bench::cell(r.completed), bench::cell(r.failed),
           bench::cell(counter(r.fabric_metrics, "fabric.retransmits")),
           bench::cell(counter(r.fabric_metrics, "fabric.drops")),
           bench::cell(r.goodput_gbps, 2), bench::cell(r.p99_us, 2)});
  }

  // Every completed destination window is checked against the host
  // reference (ddt::unpack / init-fill + apply_reduce); this must be 0.
  report.param("verify_failures", bench::Json{verify_failures});
  report.note("tails stretch with offered load as output-port queues "
              "fill; the lossy rows keep goodput with retransmissions "
              "absorbing the drops");
}

NETDDT_BENCH_MAIN()
