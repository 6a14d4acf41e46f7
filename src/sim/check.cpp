#include "sim/check.hpp"

#include <sstream>

namespace netddt::sim::check {

ScopedContext::ScopedContext(const Context& ctx) : saved_(context()) {
  Context& cur = context();
  if (ctx.msg_id >= 0) cur.msg_id = ctx.msg_id;
  if (ctx.pkt_index >= 0) cur.pkt_index = ctx.pkt_index;
  if (ctx.stream_offset >= 0) cur.stream_offset = ctx.stream_offset;
}
ScopedContext::~ScopedContext() { context() = saved_; }

void fail(const char* expr, const char* file, int line,
          const std::string& detail) {
  const Context ctx = context();
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ":" << line;
  if (!detail.empty()) os << " (" << detail << ")";
  os << " [msg=" << ctx.msg_id << " pkt=" << ctx.pkt_index
     << " stream_off=" << ctx.stream_offset << "]";
  throw Violation(os.str(), ctx);
}

}  // namespace netddt::sim::check
