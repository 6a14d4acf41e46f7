#include "offload/sender.hpp"

#include <algorithm>

#include "offload/driver.hpp"
#include "sim/check.hpp"

namespace netddt::offload {

std::string_view send_strategy_name(SendStrategy s) {
  switch (s) {
    case SendStrategy::kPackSend: return "Pack+Send";
    case SendStrategy::kStreamingPut: return "StreamingPuts";
    case SendStrategy::kOutboundSpin: return "Outbound-sPIN";
  }
  return "?";
}

SendResult run_send(const SendConfig& config) {
  NETDDT_CHECK(config.type != nullptr && config.count > 0,
               "run_send needs a datatype and a positive count");
  const spin::CostModel& c = config.cost;
  const std::uint64_t msg = config.type->size() * config.count;
  Window window = receive_window(*config.type, config.count);
  window.bytes += 64;
  const Source source{config.type, config.count, window, config.strategy};

  MessageDriver driver(World{.fabric = fabric::point_to_point(c),
                             .nic = {.hpus = config.hpus},
                             .host_bytes = {window.bytes, msg + 64}});
  const Landing to{.bits = 0xABCD,
                   .window = {.bytes = msg},
                   .verify = config.verify};
  driver.post(to);
  driver.offer({.id = 1, .to = to}, msg, nullptr, &source);
  driver.drain(1);
  const spin::NicModel::MsgInfo& info = *driver.nic(1).info(1);

  SendResult res;
  res.strategy = config.strategy;
  res.message_bytes = msg;
  res.total_time = info.unpack_done;
  if (config.strategy == SendStrategy::kOutboundSpin) {
    res.cpu_busy_time = c.h_init;  // the PtlProcessPut control op only
    // First departure = first byte at the target minus the flight time.
    res.first_departure =
        info.first_byte - c.net_latency -
        c.wire_time(std::min<std::uint64_t>(msg, c.pkt_payload));
  } else {
    const std::vector<sim::Time> ready = send_issue(source, c);
    res.first_departure = ready.front();
    res.cpu_busy_time = ready.back();  // the last packet's issue
  }
  res.verified = driver.verified() == 1;
  return res;
}

}  // namespace netddt::offload
