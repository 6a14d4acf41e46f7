#include "spans.hpp"

#include <fstream>

#include "bench/lib/json.hpp"

namespace perf_ladder {

using netddt::bench::Json;

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name,
                           bool new_call)
    : rec_(rec) {
  if (rec_ != nullptr) rec_->begin(std::move(name), new_call);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ != nullptr) rec_->end();
}

void SpanRecorder::begin(std::string name, bool new_call) {
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  std::uint64_t call = stack_.empty() ? 0 : stack_.back().call;
  if (new_call || call == 0) call = next_call_++;
  const std::uint64_t id = next_id_++;
  stack_.push_back({id, parent, call, name});
  events_.push_back({'B', std::move(name), now_us(), id, parent, call});
}

void SpanRecorder::end() {
  Open open = std::move(stack_.back());
  stack_.pop_back();
  // The E event repeats the B event's name: trace_inspect pairs them by
  // name per track.
  events_.push_back({'E', std::move(open.name), now_us(), open.id,
                     open.parent, open.call});
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
      .count();
}

bool SpanRecorder::write_chrome(const std::string& path,
                                const std::string& label) const {
  Json events = Json::array();
  Json proc = Json::object();
  proc["ph"] = "M";
  proc["name"] = "process_name";
  proc["pid"] = 1;
  proc["ts"] = 0;
  proc["args"] = Json::object();
  proc["args"]["name"] = label;
  events.push_back(std::move(proc));
  Json thread = Json::object();
  thread["ph"] = "M";
  thread["name"] = "thread_name";
  thread["pid"] = 1;
  thread["tid"] = 1;
  thread["ts"] = 0;
  thread["args"] = Json::object();
  thread["args"]["name"] = "host";
  events.push_back(std::move(thread));
  for (const Event& e : events_) {
    Json j = Json::object();
    j["ph"] = std::string(1, e.ph);
    j["name"] = e.name;
    j["ts"] = e.ts_us;
    j["pid"] = 1;
    j["tid"] = 1;
    j["args"] = Json::object();
    j["args"]["span"] = e.id;
    j["args"]["parent"] = e.parent;
    j["args"]["call"] = e.call;
    events.push_back(std::move(j));
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << doc.dump(0) << "\n";
  return static_cast<bool>(out);
}

}  // namespace perf_ladder
