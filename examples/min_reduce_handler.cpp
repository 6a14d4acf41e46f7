// The worked example from docs/HANDLERS.md: author a minimal streaming
// *min-reduction* handler against the raw sPIN seam — an
// ExecutionContext whose payload handler combines each arriving int32
// into the destination with a read-modify-write DMA, instead of
// scattering bytes. Everything here is the real API the offload
// strategies use; the higher-level route (ReceiveConfig::compute) wraps
// exactly this wiring.
//
// Build target: min_reduce_handler (examples/CMakeLists.txt).

#include <cstdio>
#include <cstring>
#include <vector>

#include "fabric/fabric.hpp"
#include "p4/put.hpp"
#include "spin/compute.hpp"
#include "spin/handler.hpp"
#include "spin/nic.hpp"

using namespace netddt;

int main() {
  // 1. A receiver world: simulated host memory, the sPIN NIC model, and
  //    a point-to-point link (sender node 0 -> this NIC, node 1) to
  //    stream packets through.
  sim::Engine engine;
  spin::Host host(1 << 20);
  spin::NicModel nic(engine, host, spin::CostModel{});
  fabric::Fabric link(engine, fabric::point_to_point(nic.cost()));
  link.attach(1, nic);
  const spin::CostModel& cost = nic.cost();

  // 2. The message: 16 Ki int32 elements of valid data (fill_typed
  //    never produces NaNs or values near the integer wrap), and a
  //    destination pre-loaded with different values — a reduction
  //    combines into existing contents, it does not overwrite them.
  constexpr std::size_t kElems = 16384;
  constexpr std::size_t kBytes = kElems * 4;
  std::vector<std::byte> stream(kBytes);
  spin::fill_typed(stream.data(), kBytes, spin::ElemType::kInt32,
                   /*seed=*/7);
  std::vector<std::byte> initial(kBytes);
  spin::fill_typed(initial.data(), kBytes, spin::ElemType::kInt32,
                   /*seed=*/8);
  std::memcpy(host.memory().data(), initial.data(), kBytes);

  // 3. The handler family. family = kReduce makes ExecutionContext::rmw()
  //    true, which switches the NIC's duplicate-packet contract from
  //    "re-run the handler, rewrites are idempotent" to "gate the replay
  //    on the seen bitmap" — a combine applied twice would be wrong.
  spin::ExecutionContext ctx;
  ctx.label = "min-reduce";
  ctx.family = spin::HandlerFamily::kReduce;

  // 4. The payload handler: charge simulated time for what the HPU
  //    would do (per-element ALU work + one DMA issue), then hand the
  //    packet's elements to the DMA engine as a read-modify-write.
  //    dst[i] = min(dst[i], src[i]) is applied when the write *lands*,
  //    so concurrent packets never race on the PCIe.
  //
  //    This example keeps packets element-aligned (the default
  //    pkt_payload is a multiple of 4); offload::ComputePlan shows the
  //    general fragment-staging path for elements split across packets.
  ctx.payload = [&cost](spin::HandlerArgs& args) {
    args.meter.charge(spin::Phase::kInit, cost.h_init);
    const std::uint32_t elems = args.pkt.payload_bytes / 4;
    args.meter.charge(spin::Phase::kProcessing,
                      elems * cost.h_alu_per_elem + cost.h_dma_issue);
    args.dma.rmw(args.meter.total(),
                 args.buffer_offset +
                     static_cast<std::int64_t>(args.pkt.offset),
                 {args.pkt.data, args.pkt.payload_bytes},
                 spin::ReduceOp::kMin, spin::ElemType::kInt32);
  };

  // 5. The completion handler runs after every payload handler (the
  //    paper's happens-before rule); its zero-byte signalled write marks
  //    the message done.
  ctx.completion = [&cost](spin::HandlerArgs& args) {
    args.meter.charge(spin::Phase::kProcessing, cost.h_complete);
    args.dma.write(args.meter.total(), 0, {}, /*signal_event=*/true);
  };

  // 6. Post the receive and stream the message.
  p4::MatchEntry me;
  me.match_bits = 0x51;
  me.buffer_offset = 0;
  me.length = kBytes;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  link.send(/*src=*/0, /*dst=*/1,
            p4::packetize(/*msg_id=*/1, /*match_bits=*/0x51, stream), 0);
  engine.run();

  // 7. Verify bit-identical against the same kernel run on the host —
  //    apply_reduce is shared by the DMA landing, the CPU baseline and
  //    this reference, so agreement is exact, not approximate.
  std::vector<std::byte> expect = initial;
  spin::apply_reduce(expect.data(), stream.data(), kBytes,
                     spin::ReduceOp::kMin, spin::ElemType::kInt32);
  const bool ok =
      std::memcmp(host.memory().data(), expect.data(), kBytes) == 0;

  const auto* info = nic.info(1);
  std::printf("min-reduction of %zu int32 elements: %s\n", kElems,
              ok ? "bit-identical to host reference" : "MISMATCH");
  if (info != nullptr) {
    std::printf("  %llu handler runs, unpack done at %.2f us\n",
                static_cast<unsigned long long>(info->handlers),
                sim::to_us(info->unpack_done));
  }
  return ok && info != nullptr && info->done ? 0 : 1;
}
