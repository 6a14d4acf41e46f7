#pragma once
// Host-speed calibration. The benchmark shares its host with other
// machines' work, and the speed the host gives one thread drifts by tens
// of percent over minutes: the core runs slower while a neighbour shares
// it, and memory accesses slow down while neighbours load the caches and
// the memory bus. Two fixed kernels measure that speed beside the passes.
// They take no input and call nothing in src/:
//
//   core    a chain of dependent integer operations that touches no
//           memory;
//   memory  a small discrete-event loop: a binary heap of events and a
//           hash map whose entries are reallocated, over a few MiB.
//
// The simulator depends on both, so scale() takes the geometric mean of
// the two kernels' speeds relative to their reference times. Each
// kernel's fastest time over the runs counts, as for the passes.

#include <limits>

namespace perf_ladder {

class Calibration {
 public:
  /// Time both kernels once.
  void run();

  /// Factor that converts host seconds measured beside the kernels to
  /// seconds at the reference speed.
  double scale() const;

  double core_s() const { return core_s_; }
  double memory_s() const { return memory_s_; }

 private:
  double core_s_ = std::numeric_limits<double>::infinity();
  double memory_s_ = std::numeric_limits<double>::infinity();
};

}  // namespace perf_ladder
