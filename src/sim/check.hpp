#pragma once
// Always-on runtime invariant checking for the simulation pipeline.
//
// NIC handlers write straight into the receive buffer, so a broken
// invariant in a hot path (dataloop walks, segment catch-up, NIC packet
// dispatch) or a bad caller input would corrupt memory without any
// error. Plain assert() compiles out under -DNDEBUG; NETDDT_CHECK stays
// in every build type and tests only its condition. A passing check
// costs one compare and one untaken branch: no metrics are touched and
// nothing is allocated, so deterministic output (tables, --json
// reports) does not depend on the checks.
//
// Failure model: a violated check throws check::Violation carrying the
// formatted expression, source location, and the current Context (msg
// id / packet index / segment stream offset, installed by the NIC
// dispatch path and the offload handlers). Tests and the fuzzer catch
// it; uncaught it terminates with a readable what().

#include <cstdint>
#include <stdexcept>
#include <string>

namespace netddt::sim::check {

/// What the pipeline was doing when a check fired. Installed by the
/// layers that know (NIC dispatch sets msg/packet, segment walks set the
/// stream offset); -1 means "not in such a scope".
struct Context {
  std::int64_t msg_id = -1;
  std::int64_t pkt_index = -1;
  std::int64_t stream_offset = -1;
};

/// The current thread's context (mutable; cheap POD).
inline Context& context() {
  thread_local Context ctx{};
  return ctx;
}

/// RAII context patch: overwrites the given fields, restores on exit.
/// Constructing one is a few stores.
class ScopedContext {
 public:
  explicit ScopedContext(const Context& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context saved_;
};

/// Thrown by a failed NETDDT_CHECK.
class Violation : public std::runtime_error {
 public:
  Violation(std::string what, Context ctx)
      : std::runtime_error(std::move(what)), ctx_(ctx) {}
  const Context& ctx() const { return ctx_; }

 private:
  Context ctx_;
};

/// Assemble the message and throw Violation. `detail` may be empty.
[[noreturn]] void fail(const char* expr, const char* file, int line,
                       const std::string& detail);

}  // namespace netddt::sim::check

/// Checked invariant, compiled into every build type: throws
/// check::Violation (with `detail`, which is only evaluated on failure)
/// when the condition is false. The failure path is a cold, never
/// inlined lambda, so a detail string built from to_string and
/// concatenation adds one call to the checking function, not its code.
/// (GNU attribute spelling: a standard attribute after a lambda's
/// parameter list applies to its type until C++23.)
#define NETDDT_CHECK(cond, detail)                                       \
  do {                                                                   \
    if (!(cond)) [[unlikely]] {                                          \
      [&]() __attribute__((cold, noinline, noreturn)) {                  \
        ::netddt::sim::check::fail(#cond, __FILE__, __LINE__, (detail)); \
      }();                                                               \
    }                                                                    \
  } while (0)
