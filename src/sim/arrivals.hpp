#pragma once
// Open-loop arrival processes for steady-state service experiments.
//
// A closed-loop driver (send, wait, send) can never overload the NIC; an
// open-loop process offers messages on its own clock and lets queueing
// happen, which is where saturation, fairness, and tail latency become
// visible. Two processes:
//
//  - kPoisson: memoryless arrivals at `rate` messages/second.
//  - kOnOff: an interrupted Poisson process (bursty). ON windows emit
//    arrivals at rate / on_fraction (mean burst_len messages per
//    window), separated by exponential OFF gaps sized so the *long-run*
//    offered load equals `rate` — sweeps can compare smooth vs bursty
//    traffic at identical load.
//
// Determinism contract (mirrors sim::faults::FaultPlan): the sequence of
// arrival times is a pure function of (config, stream). Each tenant gets
// its own `stream`, every sample comes from a private sim::Rng seeded by
// mixing config.seed with the stream id, and no global state is touched
// — so schedules are independent of --jobs scheduling and of other
// tenants' draws.
//
// ArrivalFeed feeds one process's arrivals to the DES engine one at a
// time, each under an engine ticket drawn up front (see
// sim/engine.hpp).

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace netddt::sim {

enum class ArrivalKind { kPoisson, kOnOff };

inline const char* arrival_kind_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kOnOff: return "on-off";
  }
  return "?";
}

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 1e6;          // long-run offered load, messages/second
  double on_fraction = 0.25;  // kOnOff: fraction of time spent ON
  double burst_len = 16.0;    // kOnOff: mean messages per ON window
  std::uint64_t seed = 1;
};

/// Generator of one tenant's arrival times (monotonically nondecreasing
/// picosecond timestamps starting after t=0).
///
/// The constructor rejects invalid configs with std::invalid_argument
/// (rate <= 0, on_fraction outside (0, 1], burst_len < 1) instead of
/// silently coercing them. The degenerate kOnOff with on_fraction == 1
/// collapses to plain Poisson — same long-run rate, and the emitted
/// timestamp sequence is bit-identical to an equivalent kPoisson
/// config.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalConfig& config, std::uint64_t stream);

  /// The next arrival time.
  Time next();

 private:
  double exp_sample(double mean_ps);

  ArrivalConfig config_;
  Rng rng_;
  double now_ps_ = 0.0;
  double on_end_ps_ = 0.0;   // kOnOff: current ON window end
  double gap_mean_ps_ = 0.0; // mean inter-arrival gap while emitting
  double on_mean_ps_ = 0.0;  // kOnOff: mean ON window length
  double off_mean_ps_ = 0.0; // kOnOff: mean OFF gap length
};

/// `count` arrivals of one ArrivalProcess, entering an Engine one at a
/// time. The constructor draws all their tickets, so feeds built in a
/// loop keep the seq order of schedules posted up front in that loop.
/// start(fn) places arrival 0; each arrival k places arrival k + 1 and
/// then calls fn(k, at). The heap holds one arrival per feed, and since
/// times are drawn in the same order, every arrival keeps the (when,
/// seq) it would have had up front. A started feed must not move.
class ArrivalFeed {
 public:
  ArrivalFeed(const ArrivalConfig& config, std::uint64_t stream,
              Engine& engine, std::uint64_t count)
      : process_(config, stream),
        engine_(&engine),
        first_ticket_(engine.tickets(count)),
        count_(count) {}

  /// `fn`: void(std::uint64_t k, Time at), copied into every arrival.
  template <typename Fn>
  void start(Fn fn) {
    if (count_ > 0) arm(0, fn);
  }

 private:
  template <typename Fn>
  void arm(std::uint64_t k, const Fn& fn) {
    const Time at = process_.next();
    engine_->schedule_ticketed(at, first_ticket_ + k, [this, k, at, fn] {
      if (k + 1 < count_) arm(k + 1, fn);
      fn(k, at);
    });
  }

  ArrivalProcess process_;
  Engine* engine_;
  std::uint64_t first_ticket_;
  std::uint64_t count_;
};

}  // namespace netddt::sim
