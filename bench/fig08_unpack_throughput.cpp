// Fig 8: unpacking throughput of an MPI_Type_vector as a function of
// the block size. 4 MiB message, stride = 2 x block size, 16 HPUs.
// Series: Specialized, RW-CP, RO-CP, HPU-local, Host.
//
// Paper shape: the specialized handler reaches line rate (200 Gbit/s)
// from 64 B blocks; RW-CP tracks it at roughly half until it also
// saturates; RO-CP is limited by the segment copy; HPU-local's catch-up
// shrinks with block size; all offloaded variants drop below the
// host-based unpack at 4 B blocks.

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

NETDDT_EXPERIMENT(fig08,
                  "unpack throughput vs block size (4 MiB vector message)") {
  constexpr std::uint64_t kMessage = 4ull << 20;
  const StrategyKind kinds[] = {
      StrategyKind::kSpecialized, StrategyKind::kRwCp, StrategyKind::kRoCp,
      StrategyKind::kHpuLocal, StrategyKind::kHostUnpack};

  const std::uint32_t hpus = params.hpus_or(16);
  const std::uint64_t seed = params.seed_or(1);
  const auto pack_engine =
      params.pack_engine_or(dataloop::PackEngine::kInterpreter);

  std::vector<std::int64_t> blocks = {4,   16,   32,   64,   128,  256,
                                      512, 1024, 2048, 4096, 8192, 16384};
  if (params.smoke) blocks = {128, 2048};
  if (params.blocks) blocks = {static_cast<std::int64_t>(*params.blocks)};

  std::vector<std::string> columns = {"block"};
  for (auto k : kinds) columns.emplace_back(strategy_name(k));
  auto& t = report.table("throughput", columns).unit("Gbit/s");

  // Every (block, strategy) point is an independent simulation: fan out
  // through the pool, then build the table serially from the collected
  // runs (submission order), which keeps output identical to --jobs 1.
  bench::Sweep<offload::ReceiveRun> sweep(params.executor);
  const auto tc = params.trace_config();
  for (std::int64_t block : blocks) {
    for (auto kind : kinds) {
      sweep.submit([block, kind, hpus, seed, tc, pack_engine] {
        offload::ReceiveConfig cfg;
        cfg.pack_engine = pack_engine;
        cfg.type = ddt::Datatype::hvector(
            static_cast<std::int64_t>(kMessage) / block, block, 2 * block,
            ddt::Datatype::int8());
        cfg.strategy = kind;
        cfg.hpus = hpus;
        cfg.seed = seed;
        cfg.verify = false;  // correctness covered by the test suite
        cfg.trace = tc;
        return offload::run_receive(cfg);
      });
    }
  }
  auto runs = sweep.collect();

  std::size_t i = 0;
  for (std::int64_t block : blocks) {
    std::vector<bench::Cell> row = {bench::cell_bytes(
        static_cast<double>(block))};
    for (auto kind : kinds) {
      auto& run = runs[i++];
      row.push_back(bench::cell(run.result.throughput_gbps(), 1));
      report.counters(run.metrics);
      params.observe(report, std::move(run.tracer),
                     "fig08/" + std::string(strategy_name(kind)) + "/b" +
                         std::to_string(block));
    }
    t.row(std::move(row));
  }
  report.note("paper: specialized at line rate from 64 B; host wins at 4 B");
}

NETDDT_BENCH_MAIN()
