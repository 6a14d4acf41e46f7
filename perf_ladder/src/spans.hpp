#pragma once
// Host-time spans around the layer calls the benchmark makes.
//
// Each span has a name, a start and end (host steady clock), the span
// that encloses it, and a call id: a span opened with `new_call` starts
// a fresh id (one simulation or microbenchmark call) and every span
// nested inside it inherits that id. Spans live in memory and are
// written once, at exit, as Chrome trace-event JSON (balanced B/E pairs
// on one host track, so bench/trace_inspect accepts the file).
//
// A disabled recorder (the untraced runs) records nothing.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perf_ladder {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), t0_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name, bool new_call);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
  };

  Scope span(std::string name, bool new_call = false) {
    return Scope(enabled_ ? this : nullptr, std::move(name), new_call);
  }

  /// Write every recorded span as one Chrome trace-event document.
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& label) const;

 private:
  struct Open {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t call;
    std::string name;
  };
  struct Event {
    char ph;  // 'B' or 'E'
    std::string name;
    double ts_us;
    std::uint64_t id;
    std::uint64_t parent;  // 0 = top level
    std::uint64_t call;
  };

  void begin(std::string name, bool new_call);
  void end();
  double now_us() const;

  bool enabled_;
  Clock::time_point t0_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_call_ = 1;
  std::vector<Open> stack_;
  std::vector<Event> events_;
};

}  // namespace perf_ladder
