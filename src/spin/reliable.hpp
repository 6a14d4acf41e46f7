#pragma once
// Sender-side reliable put: the one ack/retransmit state machine that
// spin::Link and fabric::Fabric share. It owns p4::ReliablePutState, one
// FaultPlan::decide per attempt, a timer per attempt that retransmits an
// unacked packet (p4::RetransmitConfig backoff) or fails the put after
// rc.max_retries, acks, release of the completion packet once every data
// packet is acked, and the PutCompleteFn callback. Each copy reaching the
// NIC is built at arrival from (index, attempt, dup), flags set.
//
// A route derives from it and supplies the path (the virtual hooks
// below). Same-time events fire in scheduling order: a path schedules an
// attempt's delivery before its duplicate; the timer is armed after both.
// Create with std::make_shared, then start(); engine callbacks keep the
// put alive, the caller keeps `packets` alive until the run drains.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "p4/packet.hpp"
#include "p4/put.hpp"
#include "sim/engine.hpp"
#include "sim/faults/faults.hpp"
#include "sim/metrics.hpp"

namespace netddt::spin {

/// Fires once: when the completion packet is acked (`ok`), or when a
/// packet exhausts its retries (`!ok`; the message never completes).
using PutCompleteFn = std::function<void(sim::Time when, bool ok)>;

class ReliablePut : public std::enable_shared_from_this<ReliablePut> {
 public:
  /// Where the machine counts protocol events (each route publishes
  /// them under its own names).
  struct Counters {
    sim::Counter* retransmits;
    sim::Counter* acks;
    sim::Counter* failures;
  };

  virtual ~ReliablePut() = default;
  ReliablePut(const ReliablePut&) = delete;  // engine callbacks hold it
  ReliablePut& operator=(const ReliablePut&) = delete;

  /// Send the first attempts, no earlier than `at`. Call once.
  void start(sim::Time at);

 protected:
  ReliablePut(sim::Engine& engine, const std::vector<p4::Packet>& packets,
              const sim::faults::FaultPlan& plan,
              const p4::RetransmitConfig& rc, PutCompleteFn on_complete,
              Counters counters);

  sim::Engine& engine() const { return *engine_; }
  const p4::Packet& packet(std::uint64_t idx) const {
    return (*packets_)[idx];
  }
  const sim::faults::FaultPlan& plan() const { return plan_; }

  /// Schedule a copy of attempt `attempt` of packet `idx` to reach the
  /// NIC at `when`.
  void arrive_at(sim::Time when, std::uint64_t idx, std::uint32_t attempt,
                 bool is_dup);

  // --- The path a route supplies -----------------------------------------

  /// Base timeout when RetransmitConfig::timeout is 0.
  virtual sim::Time derived_timeout() const = 0;
  /// Delay from a copy reaching the NIC to its ack reaching the sender.
  virtual sim::Time ack_latency() const = 0;
  /// Put attempt `attempt` of packet `idx` on the route no earlier than
  /// `at` under fault decision `d`, scheduling every surviving copy with
  /// arrive_at(). `timeout` is the attempt's timer length. Returns the
  /// timer anchor.
  virtual sim::Time send_attempt(std::uint64_t idx, std::uint32_t attempt,
                                 sim::Time at,
                                 const sim::faults::FaultDecision& d,
                                 sim::Time timeout) = 0;
  /// Hand an arriving copy to the receiving NIC.
  virtual void deliver(const p4::Packet& pkt, std::uint64_t idx) = 0;
  /// The completion packet was acked (called before the callback).
  virtual void completed() {}

 private:
  void transmit(std::uint64_t idx, std::uint32_t attempt, sim::Time at);
  void on_ack(std::uint64_t idx);
  void fail();

  sim::Engine* engine_;
  const std::vector<p4::Packet>* packets_;
  sim::faults::FaultPlan plan_;
  p4::RetransmitConfig rc_;
  PutCompleteFn on_complete_;
  Counters counters_;
  sim::Time base_timeout_ = 0;
  sim::Time ack_latency_ = 0;
  p4::ReliablePutState state_;
  bool completion_sent_ = false;
  bool done_ = false;
};

}  // namespace netddt::spin
