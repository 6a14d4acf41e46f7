#pragma once
// Trace-driven LogGP simulator (the LogGOPSim role in the paper's
// methodology, Sec 5.4): ranks execute dependency-ordered schedules of
// calc / send / recv operations (GOAL-style traces) over a LogGP
// network.
//
// Semantics:
//  - calc occupies the rank's CPU for its duration;
//  - send occupies the CPU for `o`, the NIC for `g + (bytes-1)*G`, and
//    the first byte reaches the peer after `L`;
//  - recv occupies the CPU for `o` and completes when the matching
//    message (src, tag) has fully arrived; messages match in FIFO order
//    per (src, dst, tag);
//  - an op starts when all its intra-rank dependencies completed and
//    the CPU (and NIC, for sends) is free.

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace netddt::goal {

/// LogGP parameters (shared with the FFT2D study).
struct LogGP {
  sim::Time L = sim::us(1);        // latency
  sim::Time o = sim::us(1);        // per-message CPU overhead
  sim::Time g = sim::us(1);        // inter-message gap (NIC occupancy)
  double G_gbps = 200.0;           // per-byte gap as bandwidth
};

struct Op {
  enum class Kind : std::uint8_t { kCalc, kSend, kRecv };
  Kind kind = Kind::kCalc;
  sim::Time duration = 0;   // calc only
  std::uint64_t bytes = 0;  // send/recv
  std::uint32_t peer = 0;   // send destination / recv source
  std::uint32_t tag = 0;
  std::vector<std::uint32_t> deps;  // indices of same-rank ops
};

/// One rank's schedule: a DAG of ops in vector order.
class Schedule {
 public:
  std::uint32_t calc(sim::Time duration,
                     std::vector<std::uint32_t> deps = {});
  std::uint32_t send(std::uint64_t bytes, std::uint32_t dst,
                     std::uint32_t tag, std::vector<std::uint32_t> deps = {});
  std::uint32_t recv(std::uint64_t bytes, std::uint32_t src,
                     std::uint32_t tag, std::vector<std::uint32_t> deps = {});
  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

struct RunResult {
  sim::Time makespan = 0;
  std::vector<sim::Time> rank_finish;  // per-rank completion time
  std::uint64_t messages = 0;
};

/// Run the schedules to completion. Throws sim::check::Violation on a
/// dependency that is not an earlier op, a peer that is not a rank, and
/// on deadlock (a receive no send matches).
RunResult run_loggp(const std::vector<Schedule>& ranks,
                    const LogGP& params);

}  // namespace netddt::goal
