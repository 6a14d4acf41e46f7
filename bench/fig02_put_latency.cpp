// Fig 2: latency of a one-byte put, RDMA vs sPIN, with the
// network / NIC / PCIe breakdown. The paper reports ~24% added latency
// for the sPIN path (packet copy to NIC memory, handler scheduling, and
// the handler issuing the DMA write).

#include "bench/lib/experiment.hpp"
#include "fabric/fabric.hpp"
#include "p4/put.hpp"
#include "sim/engine.hpp"
#include "spin/nic.hpp"

using namespace netddt;

namespace {

/// Simulate a 1-byte put and return the time the byte lands in host
/// memory (first signalled DMA completion).
sim::Time put_latency(bool use_spin, const spin::CostModel& cost) {
  sim::Engine eng;
  spin::Host host(4096);
  spin::NicModel nic(eng, host, cost);
  fabric::Fabric link(eng, fabric::point_to_point(nic.cost()));
  link.attach(1, nic);

  p4::MatchEntry me;
  me.match_bits = 1;
  if (use_spin) {
    spin::ExecutionContext ctx;
    ctx.payload = [&nic](spin::HandlerArgs& args) {
      const auto& c = nic.cost();
      args.meter.charge(spin::Phase::kInit, c.h_init);
      args.meter.charge(spin::Phase::kProcessing,
                        c.h_block_specialized + c.h_dma_issue);
      args.dma.write(args.meter.total(), args.buffer_offset,
                     {args.pkt.data, args.pkt.payload_bytes},
                     /*signal_event=*/true);
    };
    me.context = nic.register_context(std::move(ctx));
  }
  nic.match_list().append(p4::ListKind::kPriority, me);

  const std::byte one{0x42};
  std::vector<p4::Packet> pkts = p4::packetize(1, 1, {&one, 1});
  link.send(0, 1, pkts, 0);
  eng.run();
  return host.events().events().front().when;
}

}  // namespace

NETDDT_EXPERIMENT(fig02, "latency of a one-byte put operation") {
  spin::CostModel c;
  c.line_rate_gbps = params.line_rate_or(c.line_rate_gbps);

  const sim::Time rdma = put_latency(false, c);
  const sim::Time spin_t = put_latency(true, c);
  const double overhead =
      100.0 * (static_cast<double>(spin_t) / static_cast<double>(rdma) - 1.0);

  const double net = sim::to_ns(c.net_latency + c.wire_time(1));
  const double nic_rdma = sim::to_ns(c.rdma_nic_per_pkt);
  const double pcie = sim::to_ns(c.dma_service(1) + c.pcie_write_latency);
  const double nic_spin = sim::to_ns(spin_t) - net - pcie;

  auto& t = report.table(
      "put latency breakdown",
      {"path", "network(ns)", "NIC(ns)", "PCIe(ns)", "total(us)"});
  t.row({bench::cell("RDMA"), bench::cell(net, 0), bench::cell(nic_rdma, 0),
         bench::cell(pcie, 0), bench::cell(sim::to_us(rdma), 3)});
  t.row({bench::cell("sPIN"), bench::cell(net, 0), bench::cell(nic_spin, 0),
         bench::cell(pcie, 0), bench::cell(sim::to_us(spin_t), 3),
         bench::cell(overhead, 1, "%")});
  report.note("paper: RDMA 266/119/745 ns; sPIN adds packet copy, HER "
              "dispatch and handler execution on the NIC: +24.4%");
}

NETDDT_BENCH_MAIN()
