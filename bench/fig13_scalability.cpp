// Fig 13: (a) receive throughput vs number of HPUs (2 KiB blocks);
// (b) NIC memory occupancy vs block size (16 HPUs);
// (c) NIC memory occupancy vs number of HPUs.
//
// Paper shape: the specialized handler reaches line rate with 2 HPUs;
// the checkpointed variants' occupancy grows as blocks get larger (the
// faster processing shrinks the checkpoint interval); HPU-local's
// occupancy grows with the HPU count (one segment replica per vHPU).

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;
using offload::StrategyKind;

namespace {

constexpr std::uint64_t kMessage = 4ull << 20;
constexpr offload::StrategyKind kKinds[] = {
    StrategyKind::kSpecialized, StrategyKind::kRwCp, StrategyKind::kRoCp,
    StrategyKind::kHpuLocal};

offload::ReceiveRun run(StrategyKind kind, std::int64_t block,
                        std::uint32_t hpus, dataloop::PackEngine pack_engine) {
  offload::ReceiveConfig cfg;
  cfg.pack_engine = pack_engine;
  cfg.type = ddt::Datatype::hvector(
      static_cast<std::int64_t>(kMessage) / block, block, 2 * block,
      ddt::Datatype::int8());
  cfg.strategy = kind;
  cfg.hpus = hpus;
  cfg.verify = false;
  return offload::run_receive(cfg);
}

std::vector<std::string> with_lead(const char* lead) {
  std::vector<std::string> columns = {lead};
  for (auto k : kKinds) columns.emplace_back(strategy_name(k));
  return columns;
}

}  // namespace

NETDDT_EXPERIMENT(fig13, "receive throughput and NIC memory scalability") {
  const std::uint32_t base_hpus = params.hpus_or(16);
  const std::int64_t base_block =
      static_cast<std::int64_t>(params.blocks_or(2048));
  const auto pe = params.pack_engine_or(dataloop::PackEngine::kInterpreter);

  std::vector<std::uint32_t> hpu_sweep = {2, 4, 8, 16, 32};
  std::vector<std::int64_t> block_sweep = {4, 32, 128, 512, 2048, 8192};
  std::vector<std::uint32_t> hpu_mem_sweep = {4, 8, 16, 32};
  if (params.smoke) {
    hpu_sweep = {2, 16};
    block_sweep = {128, 2048};
    hpu_mem_sweep = {4, 16};
  }

  // Fan every (table, row, strategy) point out through the pool; the
  // three tables consume the collected runs in submission order.
  bench::Sweep<offload::ReceiveRun> sweep(params.executor);
  for (std::uint32_t hpus : hpu_sweep) {
    for (auto k : kKinds) {
      sweep.submit([k, base_block, hpus, pe] {
        return run(k, base_block, hpus, pe);
      });
    }
  }
  for (std::int64_t block : block_sweep) {
    for (auto k : kKinds) {
      sweep.submit([k, block, base_hpus, pe] {
        return run(k, block, base_hpus, pe);
      });
    }
  }
  for (std::uint32_t hpus : hpu_mem_sweep) {
    for (auto k : kKinds) {
      sweep.submit([k, base_block, hpus, pe] {
        return run(k, base_block, hpus, pe);
      });
    }
  }
  auto runs = sweep.collect();
  std::size_t i = 0;

  auto& a = report.table("fig13a: throughput vs #HPUs", with_lead("HPUs"))
                .unit("Gbit/s, 2 KiB blocks");
  for (std::uint32_t hpus : hpu_sweep) {
    std::vector<bench::Cell> row = {bench::cell(hpus)};
    for ([[maybe_unused]] auto k : kKinds) {
      const auto& r = runs[i++];
      report.counters(r.metrics);
      row.push_back(bench::cell(r.result.throughput_gbps(), 1));
    }
    a.row(std::move(row));
  }

  auto& b = report.table("fig13b: NIC memory vs block size",
                         with_lead("block"))
                .unit("KiB, 16 HPUs");
  for (std::int64_t block : block_sweep) {
    std::vector<bench::Cell> row = {
        bench::cell_bytes(static_cast<double>(block))};
    for ([[maybe_unused]] auto k : kKinds) {
      row.push_back(bench::cell(
          static_cast<double>(runs[i++].result.nic_descriptor_bytes) /
              1024.0,
          2));
    }
    b.row(std::move(row));
  }

  auto& c = report.table("fig13c: NIC memory vs #HPUs", with_lead("HPUs"))
                .unit("KiB, 2 KiB blocks");
  for (std::uint32_t hpus : hpu_mem_sweep) {
    std::vector<bench::Cell> row = {bench::cell(hpus)};
    for ([[maybe_unused]] auto k : kKinds) {
      row.push_back(bench::cell(
          static_cast<double>(runs[i++].result.nic_descriptor_bytes) /
              1024.0,
          2));
    }
    c.row(std::move(row));
  }
  report.note("paper: specialized at line rate with 2 HPUs; checkpointed "
              "variants' memory grows with block size and HPU count; "
              "HPU-local replicates one segment per vHPU");
}

NETDDT_BENCH_MAIN()
