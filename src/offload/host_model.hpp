#pragma once
// Host-CPU unpack model: the paper's baseline receives the packed
// message into a bounce buffer via plain RDMA and unpacks it with
// MPITypes on the CPU (profiled on an i7-4770 with cold caches,
// Sec 5.1). We model the unpack as a per-block overhead (dataloop walk)
// plus a copy term at cold-cache bandwidth, and account main-memory
// traffic the way Fig 17 does.

#include <cstdint>
#include <vector>

#include "ddt/datatype.hpp"
#include "spin/cost_model.hpp"

namespace netddt::offload {

struct HostUnpackEstimate {
  sim::Time unpack_time = 0;
  std::uint64_t blocks = 0;
  /// Main-memory traffic: NIC->memory message write, packed-stream read,
  /// destination-line fills (RFO) and write-backs.
  std::uint64_t traffic_bytes = 0;
};

/// Cost of unpacking `count` instances of `type` on the host CPU. Reads
/// the type's once-computed region facts (Datatype::region_facts()), so
/// it never materializes flatten(count).
HostUnpackEstimate host_unpack_estimate(const ddt::Datatype& type,
                                        std::uint64_t count,
                                        const spin::CostModel& cost);

/// Host time to *pack* the same layout (sender-side baseline).
sim::Time host_pack_time(const ddt::Datatype& type, std::uint64_t count,
                         const spin::CostModel& cost);

/// Host time to create checkpoints for RW/RO-CP: progress the type once
/// on the CPU (dataloop walk only, no copies), plus the PCIe copy of the
/// checkpoints to NIC memory (paper Fig 15 "host overhead" and Fig 18).
sim::Time host_checkpoint_setup_time(std::uint64_t blocks,
                                     std::uint64_t checkpoint_bytes,
                                     const spin::CostModel& cost);

}  // namespace netddt::offload
