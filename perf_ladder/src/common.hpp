#pragma once
// Small helpers shared by the perf_ladder translation units: host
// clocks, exact percentiles over raw samples, the simulated-outcome
// digest, and the layout record the host-layer microbenchmarks measure.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/lib/layouts.hpp"
#include "sim/stats.hpp"

namespace perf_ladder {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact percentiles of a raw sample set (sim::percentile: linear
/// interpolation between order statistics, no bucketing), with the
/// sample count so a reader can tell which tail the sample supports: a
/// percentile p needs n * (1 - p/100) >= 10 samples beyond it.
struct Tail {
  std::uint64_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  static Tail of(std::vector<double> samples) {
    Tail t;
    t.n = samples.size();
    if (samples.empty()) return t;
    t.p50 = netddt::sim::percentile(samples, 50.0);
    t.p99 = netddt::sim::percentile(samples, 99.0);
    t.p999 = netddt::sim::percentile(samples, 99.9);
    return t;
  }
  bool supports(double p) const {
    // The tolerance absorbs 100 - 99.9 != 0.1 in binary floating point.
    return static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-6;
  }
};

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Line-rate serialization time of `bytes` in microseconds: the ideal a
/// message's simulated completion time is divided by to get its slowdown.
inline double wire_us(std::uint64_t bytes, double line_rate_gbps) {
  return static_cast<double>(bytes) * 8.0 / (line_rate_gbps * 1e3);
}

/// Order-sensitive FNV-1a over 64-bit words. A pass folds every integer
/// simulated quantity it observes into one of these; repeated passes of
/// one workload must produce the same value.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// One datatype layout a workload receives into; the host-layer
/// microbenchmarks (layers.hpp) pack and unpack exactly these.
using Layout = netddt::bench::layouts::Layout;

}  // namespace perf_ladder
