// Quickstart: build a derived datatype, offload its processing to the
// simulated sPIN NIC, stream a message through it, and verify the
// scattered result — the minimal end-to-end tour of the public API.

#include <cstdio>
#include <cstring>
#include <vector>

#include "ddt/datatype.hpp"
#include "ddt/pack.hpp"
#include "fabric/fabric.hpp"
#include "offload/facade.hpp"
#include "p4/put.hpp"
#include "spin/nic.hpp"

using namespace netddt;

int main() {
  // 1. Describe a non-contiguous layout: one column of a 256 x 256
  //    row-major int32 matrix — MPI_Type_vector(256, 1, 256, MPI_INT).
  auto column = ddt::Datatype::vector(256, 1, 256, ddt::Datatype::int32());
  std::printf("datatype: %s\n", column->to_string().c_str());
  std::printf("  size %llu B, extent %lld B, %llu contiguous regions\n",
              static_cast<unsigned long long>(column->size()),
              static_cast<long long>(column->extent()),
              static_cast<unsigned long long>(column->flatten().size()));

  // 2. Bring up a receiver: host memory, a sPIN NIC, and a
  //    point-to-point link from the sender (node 0) to it (node 1).
  sim::Engine engine;
  spin::Host host(1 << 20);
  spin::NicModel nic(engine, host, spin::CostModel{});
  fabric::Fabric link(engine, fabric::point_to_point(nic.cost()));
  link.attach(1, nic);

  // 3. Commit the type and post the receive. The engine picks the
  //    processing strategy (a vector-specialized handler here) and
  //    stages its state in NIC memory.
  offload::DdtEngine ddt_engine(nic);
  const auto handle = ddt_engine.commit(column);
  const auto post =
      ddt_engine.post_receive(handle, /*count=*/1, /*buffer_offset=*/0,
                              /*length=*/1 << 20, /*match_bits=*/42);
  std::printf("offload path: %s, %llu B of NIC state\n",
              std::string(offload::strategy_name(post.strategy)).c_str(),
              static_cast<unsigned long long>(post.nic_bytes));

  // 4. The sender streams the packed column (256 int32 values).
  std::vector<std::int32_t> values(256);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::int32_t>(i * 3 + 1);
  }
  std::vector<std::byte> packed(column->size());
  std::memcpy(packed.data(), values.data(), packed.size());
  link.send(/*src=*/0, /*dst=*/1,
            p4::packetize(/*msg_id=*/1, /*match_bits=*/42, packed), 0);
  engine.run();

  // 5. Every element landed at its strided position without the CPU
  //    touching a byte.
  const auto* done = host.events().find(p4::EventKind::kUnpackComplete);
  if (done == nullptr) {
    std::printf("ERROR: unpack did not complete\n");
    return 1;
  }
  std::printf("unpack complete at %.2f us (message of %llu B)\n",
              sim::to_us(done->when),
              static_cast<unsigned long long>(done->bytes));

  for (std::size_t i = 0; i < values.size(); ++i) {
    std::int32_t got = 0;
    std::memcpy(&got, host.memory().data() + i * 256 * 4, 4);
    if (got != values[i]) {
      std::printf("ERROR: row %zu holds %d, expected %d\n", i, got,
                  values[i]);
      return 1;
    }
  }
  std::printf("verified: all 256 column elements scattered correctly\n");
  return 0;
}
