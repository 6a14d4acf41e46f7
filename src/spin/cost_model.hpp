#pragma once
// Calibration constants for the NIC / PCIe / handler timing model.
//
// The paper's numbers come from a Cray Slingshot SST model (200 Gbit/s
// NIC, 2 KiB packets, PCIe x32 Gen4) combined with gem5-simulated ARM
// Cortex A15 HPUs @ 800 MHz (Sec 5.1). We replace cycle simulation with
// per-operation charges; the defaults below are calibrated against the
// paper's published anchors:
//
//  * Fig 2 latency decomposition: a 1-byte RDMA put costs 266 ns network
//    + 119 ns NIC + 745 ns PCIe = 1130 ns; the sPIN path adds packet
//    copy to NIC memory, HER dispatch and a minimal handler for a total
//    of +24.4 %.
//  * Fig 8: the vector-specialized handler sustains 200 Gbit/s line rate
//    with 16 HPUs from 64 B blocks (gamma = 32 blocks/packet), i.e. one
//    handler must fit in 16 x 81.92 ns = 1.31 us.
//  * Fig 12: RW-CP handlers run ~2x the specialized handler; RO-CP pays
//    a segment copy in init and long catch-up; HPU-local is dominated by
//    a (P-1)-packet catch-up in setup.
//
// Every figure-reproduction bench reads these constants from one place,
// so re-calibration is a one-file change.

#include <cstdint>

#include "sim/time.hpp"

namespace netddt::spin {

struct CostModel {
  // --- Network (the point-to-point fabric's wire and hop latency) -------
  double line_rate_gbps = 200.0;
  sim::Time net_latency = sim::ns(266);
  std::uint32_t pkt_payload = 2048;

  // --- Plain RDMA receive path (non-processing) --------------------------
  sim::Time rdma_nic_per_pkt = sim::ns(119);

  // --- PCIe (x32 Gen4, 128b/130b encoding: ~504 Gbit/s per direction) ----
  double pcie_bw_gbps = 504.0;
  sim::Time pcie_write_latency = sim::ns(743);  // posted-write completion
  sim::Time pcie_read_latency = sim::ns(500);   // round-trip read (iovec
                                                // refill, paper Sec 5.3)
  sim::Time dma_req_service = sim::ns(1);       // DMA engine issue slot
  std::uint32_t pcie_tlp_header_bytes = 24;     // per-write TLP overhead

  // --- sPIN inbound path --------------------------------------------------
  double nicmem_bw_gbps = 400.0;           // 50 GiB/s NIC memory
  sim::Time pkt_copy_fixed = sim::ns(80);  // packet copy setup to NIC mem
  sim::Time her_dispatch = sim::ns(100);   // HER generation + scheduling

  // --- Handler execution (per-operation charges, A15 @ 800 MHz scale) ----
  sim::Time h_init = sim::ns(60);       // handler start + argument prep
  sim::Time h_setup = sim::ns(70);      // datatype-processing fn startup
  sim::Time h_block = sim::ns(45);      // general handler, per block found
  sim::Time h_block_specialized = sim::ns(24);  // specialized, per block
  sim::Time h_dma_issue = sim::ns(12);  // issue one DMA write command
  sim::Time h_catchup_block = sim::ns(28);  // skip one block (catch-up)
  sim::Time h_seg_copy = sim::ns(320);  // copy one 612 B segment locally
  sim::Time h_reset = sim::ns(40);      // segment reset (out-of-order)
  sim::Time h_complete = sim::ns(30);   // completion handler body
  sim::Time vhpu_switch = sim::ns(20);  // vHPU context switch on an HPU

  // --- In-network compute handlers (docs/HANDLERS.md) ---------------------
  // ALU charges per element on an HPU (A15-class integer/FP lane; the
  // handler touches every element once, so these bound compute line rate:
  // a 2 KiB packet of f32 costs 512 * h_alu_per_elem = 1.02 us, just
  // inside the 16-HPU Fig 8 budget of 1.31 us).
  sim::Time h_alu_per_elem = sim::ns(2);    // one reduce lane op
  sim::Time h_quant_per_elem = sim::ns(3);  // widen one wire element
  sim::Time h_frag_stage = sim::ns(35);     // stage/complete a split element
  // Extra landing latency of a read-modify-write DMA: the engine must
  // fetch the destination line before the combined write posts (a
  // non-posted read turnaround folded into the RMW TLP pair).
  sim::Time pcie_rmw_turnaround = sim::ns(220);

  // --- Portals 4 iovec comparator (paper Sec 5.3) -------------------------
  sim::Time iovec_per_block = sim::ns(20);  // consume one s/g entry

  // --- Host CPU unpack baseline (i7-4770 @ 3.4 GHz, cold caches) ---------
  // T_host = n_blocks * (host_block_overhead + block_bytes / host_copy_bw)
  sim::Time host_block_overhead = sim::from_ns(1.2);
  double host_copy_gBps = 6.0;   // cold-cache effective copy bandwidth
  // Host-side checkpoint creation (RW-CP setup, paper Fig 15/18): walking
  // the type on the host CPU plus copying segments across PCIe.
  sim::Time host_checkpoint_walk_per_block = sim::from_ns(2.5);
  std::uint64_t cacheline_bytes = 64;  // Fig 17 traffic accounting
  // Host-side reduction baseline (ablation_reduce): per-element ALU on
  // the same cold-cache CPU; the dominant cost is the 3x memory traffic
  // (stream read + destination read + write-back) at host_copy_gBps.
  sim::Time host_reduce_per_elem = sim::from_ns(0.8);

  // Derived helpers ---------------------------------------------------------
  sim::Time wire_time(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, line_rate_gbps);
  }
  sim::Time pkt_interval() const { return wire_time(pkt_payload); }
  sim::Time nicmem_copy(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, nicmem_bw_gbps);
  }
  sim::Time pcie_transfer(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, pcie_bw_gbps);
  }
  /// DMA engine occupancy for one write request (TLP header included).
  sim::Time dma_service(std::uint64_t bytes) const {
    return dma_req_service + pcie_transfer(bytes + pcie_tlp_header_bytes);
  }
  /// Read-modify-write request: the destination crosses PCIe twice
  /// (read completion + combined write), so occupancy doubles. Still
  /// under the 81.92 ns packet interval for a 2 KiB payload (~66 ns),
  /// which is what keeps offloaded reduction at line rate.
  sim::Time dma_rmw_service(std::uint64_t bytes) const {
    return dma_req_service +
           pcie_transfer(2 * (bytes + pcie_tlp_header_bytes));
  }
};

}  // namespace netddt::spin
