// Ablation: the RW-CP checkpoint-interval heuristic's epsilon knob
// (paper Sec 3.2.4, exposed to users through MPI_Type_set_attr per
// Sec 3.2.6). Epsilon bounds the blocked-RR scheduling-dependency
// overhead as a fraction of the processing time: small epsilon forces
// short sequences (more checkpoints, more NIC memory) while large
// epsilon tolerates serialization to save memory.

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/runner.hpp"

using namespace netddt;

NETDDT_EXPERIMENT(ablation_epsilon,
                  "RW-CP epsilon sweep (4 MiB vector, 128 B blocks)") {
  constexpr std::uint64_t kMessage = 4ull << 20;
  const std::int64_t kBlock =
      static_cast<std::int64_t>(params.blocks_or(128));

  std::vector<double> sweep = {0.05, 0.1, 0.2, 0.5, 1.0, 2.0};
  if (params.smoke) sweep = {0.1, 1.0};
  if (params.epsilon) sweep = {*params.epsilon};

  auto& t = report.table("epsilon sweep",
                         {"eps", "interval", "checkpoints", "NICmem(KiB)",
                          "msgtime(us)", "pktbuf(KiB)"});
  for (double eps : sweep) {
    offload::ReceiveConfig cfg;
    cfg.type = ddt::Datatype::hvector(
        static_cast<std::int64_t>(kMessage) / kBlock, kBlock, 2 * kBlock,
        ddt::Datatype::int8());
    cfg.strategy = offload::StrategyKind::kRwCp;
    cfg.hpus = params.hpus_or(16);
    cfg.epsilon = eps;
    cfg.verify = false;
    const auto run = offload::run_receive(cfg);
    report.counters(run.metrics);
    const auto& r = run.result;
    t.row({bench::cell(eps, 2), bench::cell(r.checkpoint_interval),
           bench::cell(r.checkpoints),
           bench::cell(static_cast<double>(r.nic_descriptor_bytes) / 1024.0,
                       1),
           bench::cell(sim::to_us(r.msg_time), 1),
           bench::cell(static_cast<double>(r.pkt_buffer_peak) / 1024.0, 1)});
  }
  report.note("smaller epsilon -> shorter sequences -> more checkpoints "
              "and NIC memory, less serialization; the default 0.2 keeps "
              "the overhead under 20% of processing time");
}

NETDDT_BENCH_MAIN()
