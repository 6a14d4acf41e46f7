#include "calibration.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perf_ladder {

namespace {

// The reference times are round numbers close to the kernels' fastest
// times on a 3 GHz Intel Xeon (Sapphire Rapids) core, so that scaled host
// times read close to raw seconds there. They only fix the scale.
constexpr std::uint64_t kCoreIters = 5'000'000;  // ~2 ns each
constexpr double kReferenceCoreS = 0.010;
constexpr int kMemorySteps = 150'000;
constexpr double kReferenceMemoryS = 0.025;

// Volatile, so the compiler can neither fold the kernels nor drop them.
volatile std::uint64_t sink = 1;

double core_kernel_s() {
  const auto t0 = Clock::now();
  std::uint64_t x = sink;
  for (std::uint64_t i = 0; i < kCoreIters; ++i) {
    x += 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
  }
  sink = x;
  return seconds_since(t0);
}

double memory_kernel_s() {
  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, key)
  const auto t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::vector<char>> table;
  std::uint64_t x = 7;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1;
    return x;
  };
  for (std::uint64_t key = 0; key < 4096; ++key) {
    heap.push({next() >> 40, key});
  }
  for (int i = 0; i < kMemorySteps; ++i) {
    const auto [time, key] = heap.top();
    heap.pop();
    const std::uint64_t r = next();
    heap.push({time + (r >> 50), key});
    const std::uint64_t slot = key ^ (r & 0x3FFF);
    std::vector<char>& entry = table[slot];
    entry.resize((r >> 20) & 255);
    if (entry.size() > 200) table.erase(slot);
  }
  sink = sink + table.size();
  return seconds_since(t0);
}

}  // namespace

void Calibration::run() {
  core_s_ = std::min(core_s_, core_kernel_s());
  memory_s_ = std::min(memory_s_, memory_kernel_s());
}

double Calibration::scale() const {
  return std::sqrt(kReferenceCoreS / core_s_ * kReferenceMemoryS / memory_s_);
}

}  // namespace perf_ladder
