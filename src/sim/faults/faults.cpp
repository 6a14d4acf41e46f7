#include "sim/faults/faults.hpp"

namespace netddt::sim::faults {

FaultDecision FaultPlan::decide(std::uint64_t pkt_index,
                                std::uint32_t attempt) const {
  FaultDecision d;
  if (!config_.active()) return d;

  // A fresh generator per decision, keyed on the full identity of the
  // attempt. The draw order below is part of the schedule: changing it
  // changes every seeded fault plan.
  // SplitMix64 over the identifying tuple gives every (packet, attempt)
  // an independent, well-distributed generator seed.
  Rng rng(splitmix64(splitmix64(splitmix64(config_.seed) ^ msg_id_) ^
                     pkt_index) ^
          attempt);

  if (config_.drop_rate > 0.0 && rng.chance(config_.drop_rate)) {
    d.drop = true;
    return d;
  }
  if (config_.reorder_rate > 0.0 && rng.chance(config_.reorder_rate)) {
    d.delay_slots = static_cast<std::uint32_t>(
        1 + rng.below(config_.reorder_window > 0 ? config_.reorder_window
                                                 : 1));
  }
  if (config_.dup_rate > 0.0 && rng.chance(config_.dup_rate)) {
    d.duplicate = true;
    d.dup_delay_slots = static_cast<std::uint32_t>(
        1 + rng.below(config_.reorder_window > 0 ? config_.reorder_window
                                                 : 1));
  }
  return d;
}

}  // namespace netddt::sim::faults
