#include "offload/driver.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "ddt/pack.hpp"
#include "offload/host_model.hpp"
#include "sim/check.hpp"

namespace netddt::offload {

Window receive_window(const ddt::Datatype& type, std::uint64_t count) {
  const std::int64_t lo =
      std::min({std::int64_t{0}, type.lb(), type.true_lb()});
  const std::int64_t hi =
      std::max({std::int64_t{0}, type.ub(), type.true_ub()});
  Window w;
  w.shift = static_cast<std::uint64_t>(-lo);
  w.bytes = w.shift + static_cast<std::uint64_t>(type.extent()) * (count - 1) +
            static_cast<std::uint64_t>(hi);
  return w;
}

std::vector<sim::Time> send_issue(const Source& source,
                                  const spin::CostModel& cost) {
  NETDDT_CHECK(source.strategy != SendStrategy::kOutboundSpin,
               "outbound sPIN packets are gathered by the NIC, not issued "
               "by the host");
  const std::uint64_t bytes = source.type->size() * source.count;
  const std::uint64_t npkt = p4::packet_count(bytes, cost.pkt_payload);
  if (source.strategy == SendStrategy::kPackSend) {
    return std::vector<sim::Time>(
        npkt, host_pack_time(*source.type, source.count, cost));
  }
  // prefix[r] is the stream end of the first r regions (none are empty).
  const ddt::RegionList list = source.type->region_list(source.count);
  const std::vector<std::uint64_t>& prefix = list.prefix();
  std::vector<sim::Time> ready(npkt);
  std::size_t r = 0;
  for (std::uint64_t k = 0; k < npkt; ++k) {
    const std::uint64_t end = std::min(bytes, (k + 1) * cost.pkt_payload);
    while (r < prefix.size() && prefix[r] < end) ++r;
    ready[k] = static_cast<sim::Time>(r) * (cost.host_block_overhead * 4);
  }
  return ready;
}

namespace {

std::vector<std::byte> build_payload(std::uint64_t bytes, std::uint64_t seed,
                                     const spin::ComputeConfig* compute) {
  if (compute == nullptr) return packed_message_pattern(bytes, seed);
  if (compute->family != spin::HandlerFamily::kTransform) {
    std::vector<std::byte> out(bytes);
    spin::fill_typed(out.data(), bytes, compute->elem, seed);
    return out;
  }
  // The sender quantizes valid host elements into the narrower wire form.
  const spin::QuantScheme q = compute->quant;
  std::vector<std::byte> logical(bytes);
  spin::fill_typed(logical.data(), bytes,
                   q == spin::QuantScheme::kF64ToF32 ? spin::ElemType::kFloat64
                                                     : spin::ElemType::kFloat32,
                   seed);
  std::vector<std::byte> out(bytes / spin::quant_host_elem(q) *
                             spin::quant_wire_elem(q));
  spin::quantize(out.data(), logical.data(), bytes, q);
  return out;
}

}  // namespace

MessageDriver::MessageDriver(const World& world)
    : world_(world), fabric_(engine_, world.fabric) {
  const std::uint32_t nodes = fabric_.topology().nodes();
  NETDDT_CHECK(world.host_bytes.size() == nodes,
               std::to_string(world.host_bytes.size()) + " host sizes for " +
                   std::to_string(nodes) + " nodes");
  if (world.trace.any()) {
    tracer_ = std::make_unique<sim::trace::Tracer>(world.trace);
    engine_.set_tracer(tracer_.get());
    blame_ = tracer_->blame();
  }
  hosts_.resize(nodes);
  nics_.resize(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    if (world.host_bytes[n] == 0) continue;  // send-only
    hosts_[n] = std::make_unique<spin::Host>(world.host_bytes[n]);
    nics_[n] = std::make_unique<spin::NicModel>(engine_, *hosts_[n],
                                                world.fabric.cost, world.nic);
    fabric_.attach(n, *nics_[n]);
    nics_[n]->set_tracer(tracer_.get());
    nics_[n]->set_msg_done_callback(
        [this, n](std::uint64_t id, sim::Time when) { done(n, id, when); });
  }
}

spin::NicModel& MessageDriver::nic(std::uint32_t node) {
  NETDDT_CHECK(node < nics_.size() && nics_[node] != nullptr,
               "node " + std::to_string(node) + " has no NIC");
  return *nics_[node];
}

const Plan& MessageDriver::install(std::uint32_t node,
                                   const ReceiveConfig& spec) {
  spin::NicModel& nic = this->nic(node);
  Plan& p = plans_.emplace_back();
  p.node = node;
  p.label = spec.compute ? "compute" : strategy_name(spec.strategy).data();
  if (spec.compute) {
    p.compute = ComputePlan::create(spec.type, spec.count, nic.cost(),
                                    spec.pack_engine, *spec.compute,
                                    nic.metrics());
    NETDDT_CHECK(p.compute != nullptr,
                 "compute config is not element-eligible for this type");
    p.rmw = spin::read_modify_write(spec.compute->family);
    p.descriptor_bytes = p.compute->descriptor_bytes();
  } else if (spec.strategy == StrategyKind::kSpecialized) {
    p.specialized = SpecializedPlan::create(spec.type, spec.count, nic.cost(),
                                            /*closed_form_only=*/false,
                                            spec.pack_engine);
    p.descriptor_bytes = p.specialized->descriptor_bytes();
  } else if (spec.strategy == StrategyKind::kIovec) {
    // The iovec list streams from host memory; nothing stays resident.
    p.iovec = std::make_unique<IovecPlan>(spec.type, spec.count, nic.cost());
    p.descriptor_bytes = p.iovec->descriptor_bytes();
    p.host_setup_time = p.iovec->host_setup_time();
    return p;
  } else {
    NETDDT_CHECK(spec.strategy != StrategyKind::kHostUnpack,
                 "the host baseline lands packed; it has no plan");
    GeneralConfig gc;
    gc.kind = spec.strategy;
    gc.hpus = nic.scheduler().hpus();
    gc.epsilon = spec.epsilon;
    gc.nic_memory_budget = nic.memory().capacity() / 2;
    gc.pkt_buffer_bytes = spec.pkt_buffer_bytes;
    p.general =
        std::make_unique<GeneralPlan>(spec.type, spec.count, gc, nic.cost());
    p.descriptor_bytes = p.general->descriptor_bytes();
    p.host_setup_time = p.general->host_setup_time();
    nic.metrics().counter("offload.checkpoints").add(p.general->checkpoints());
    nic.metrics()
        .counter("offload.checkpoint.interval_bytes")
        .add(p.general->checkpoint_interval());
  }
  // Pinned: the state belongs to messages in flight, so no eviction may
  // reclaim it mid-receive.
  nic.memory().alloc(p.descriptor_bytes, p.label, {.pinned = true});
  return p;
}

void MessageDriver::post(const Landing& landing) {
  spin::NicModel& nic = this->nic(landing.node);
  p4::MatchEntry me;
  me.match_bits = landing.bits;
  me.buffer_offset = landing.window.at();
  me.length = landing.window.bytes;
  if (const Plan* p = landing.plan; p != nullptr) {
    NETDDT_CHECK(p->node == landing.node,
                 "a plan installed on node " + std::to_string(p->node) +
                     " posted on node " + std::to_string(landing.node));
    if (p->context == nullptr) {
      spin::ExecutionContext ctx =
          p->compute != nullptr       ? p->compute->context(nic)
          : p->specialized != nullptr ? p->specialized->context(nic)
          : p->general != nullptr     ? p->general->context(nic)
                                      : p->iovec->context(nic);
      // Compute contexts name themselves after their family.
      if (p->compute == nullptr) ctx.label = p->label;
      p->context = nic.register_context(std::move(ctx));
    }
    me.context = p->context;
  }
  nic.match_list().append(p4::ListKind::kPriority, me);
}

Landing MessageDriver::post(Landing landing, DdtEngine& facade,
                            DdtEngine::TypeHandle handle) {
  const DdtEngine::PostResult r =
      facade.post_receive(handle, landing.count, landing.window.at(),
                          landing.window.bytes, landing.bits);
  if (r.strategy == StrategyKind::kHostUnpack) {
    landing.check = Landing::Check::kPacked;
  }
  return landing;
}

std::span<const std::byte> MessageDriver::offer(
    Message m, std::uint64_t bytes, const spin::ComputeConfig* compute,
    const Source* source) {
  const sim::Time now = engine_.now();
  const std::uint64_t id = m.id;
  if (m.arrival < 0) m.arrival = now;
  m.payload = build_payload(bytes, m.seed, compute);
  payload_bytes_ += m.payload.size();
  peak_payload_bytes_ = std::max(peak_payload_bytes_, payload_bytes_);
  ++offered_;
  if (blame_ != nullptr) {
    blame_->open(id, m.arrival);
    // Admission wait: arrival -> this offer (dropped when empty).
    blame_->interval(id, sim::trace::BlameStage::kAdmission, m.arrival, now);
  }
  const auto [it, fresh] = live_.emplace(id, std::move(m));
  NETDDT_CHECK(fresh, "msg " + std::to_string(id) + " offered twice");
  Message& msg = it->second;
  const sim::faults::FaultPlan plan(world_.faults, id);
  if (source != nullptr) {
    NETDDT_CHECK(!plan.active() && world_.ooo_window == 0,
                 "msg " + std::to_string(id) +
                     ": a typed source needs a lossless in-order send, not "
                     "faults or ooo_window " +
                     std::to_string(world_.ooo_window));
    NETDDT_CHECK(msg.payload.size() == source->type->size() * source->count,
                 "msg " + std::to_string(id) + ": " +
                     std::to_string(msg.payload.size()) +
                     "-byte payload for a source of " +
                     std::to_string(source->type->size()) + " bytes x " +
                     std::to_string(source->count));
    if (!msg.payload.empty()) {  // payload.data() may be null
      ddt::unpack(msg.payload.data(), *source->type, source->count,
                  host(msg.src).memory().data() + source->window.at());
    }
    if (source->strategy == SendStrategy::kOutboundSpin) {
      send_outbound(msg, *source);
      return msg.payload;
    }
  }
  std::vector<p4::Packet> packets = p4::packetize(
      id, msg.to.bits, msg.payload, world_.fabric.cost.pkt_payload);
  msg.held = plan.active() && !(msg.to.plan != nullptr && msg.to.plan->rmw);
  if (plan.active()) {
    fabric_.send_reliable(msg.src, msg.to.node, std::move(packets), now, plan,
                          world_.retransmit, [this, id](sim::Time when, bool ok) {
                            if (!ok) put_failed(id, when);
                          });
  } else {
    p4::shuffle_payload(packets, world_.ooo_window, msg.seed);
    // A one-hop route copies the headers at injection; longer routes
    // forward the caller's until done.
    const bool forwarded =
        fabric_.topology().kind() != fabric::TopologyKind::kPointToPoint;
    if (forwarded) msg.packets = std::move(packets);
    std::vector<sim::Time> ready;
    if (source != nullptr) {
      ready = send_issue(*source, world_.fabric.cost);
      for (sim::Time& t : ready) t += now;
    }
    fabric_.send(msg.src, msg.to.node, forwarded ? msg.packets : packets,
                 now, ready);
  }
  return msg.payload;
}

void MessageDriver::send_outbound(const Message& m, const Source& source) {
  if (outbound_.empty()) outbound_.resize(nics_.size());
  auto& out = outbound_[m.src];
  if (out == nullptr) {
    out = std::make_unique<spin::OutboundEngine>(
        engine_, world_.fabric.cost, nic(m.src).scheduler(), fabric_, m.src);
  }
  // One HER per packet; the handler locates the packet's regions and
  // DMA-reads them from the source window into the packet.
  const spin::CostModel& c = world_.fabric.cost;
  out->process_put(
      m.to.node, m.id, m.to.bits, m.payload.size(),
      spin::SchedulingPolicy::Default(),
      [list = source.type->region_list(source.count),
       base = host(m.src).memory().data() + source.window.at(),
       init = c.h_init + c.pcie_read_latency,
       per_region = c.h_block + c.h_dma_issue](const p4::Packet& pkt,
                                               std::byte* staging,
                                               spin::ChargeMeter& meter) {
        meter.charge(spin::Phase::kInit, init);
        list.walk(pkt.offset, pkt.offset + pkt.payload_bytes,
                  [&](std::size_t, std::int64_t host_off,
                      std::uint64_t stream_off, std::uint64_t len) {
                    meter.charge(spin::Phase::kProcessing, per_region);
                    std::memcpy(staging + (stream_off - pkt.offset),
                                base + host_off, len);
                  });
      });
}

void MessageDriver::done(std::uint32_t node, std::uint64_t id,
                         sim::Time when) {
  auto it = live_.find(id);
  NETDDT_CHECK(it != live_.end() && it->second.to.node == node,
               "msg " + std::to_string(id) + " completed on node " +
                   std::to_string(node) + ", where it was not offered");
  ++completed_;
  if (blame_ != nullptr) blame_->close(id, when);
  const bool held = it->second.held;
  if (on_finish) {
    on_finish(it->second, when);
    it = live_.find(id);  // the hook may have offered more
  }
  if (!held) release(it);
}

// No blame close: the ledger accounts completed messages only, and the
// NIC never finishes this one.
void MessageDriver::put_failed(std::uint64_t id, sim::Time when) {
  Message& m = live_.at(id);
  m.failed = true;
  ++failed_;
  if (on_finish) on_finish(m, when);
}

MessageDriver::Live::iterator MessageDriver::release(Live::iterator it) {
  const Message& m = it->second;
  if (m.to.verify) {
    if (m.failed) {
      ++skipped_;
    } else if (holds(m)) {
      ++verified_;
    } else {
      ++mismatched_;
    }
  }
  if (on_release) on_release(m);
  payload_bytes_ -= m.payload.size();
  return live_.erase(it);
}

bool MessageDriver::holds(const Message& m) {
  const Landing& to = m.to;
  const std::byte* mem = host(to.node).memory().data();
  switch (to.check) {
    case Landing::Check::kPacked:
      // payload.data() may be null for a 0-byte message.
      return m.payload.empty() ||
             std::memcmp(mem + to.window.at(), m.payload.data(),
                         m.payload.size()) == 0;
    case Landing::Check::kRegions:
      return regions_hold_stream(mem + to.window.at(), to.type, to.count,
                                 m.payload, to.engine,
                                 world_.fabric.cost.pkt_payload);
    case Landing::Check::kSlot:
    case Landing::Check::kCompute:
      break;
  }
  reference_.assign(to.window.bytes, std::byte{0});
  std::byte* ref = reference_.data();
  if (to.check == Landing::Check::kSlot) {
    ddt::unpack(m.payload.data(), *to.type, to.count, ref + to.window.shift);
  } else {
    // Init fill plus exactly one combined contribution per element.
    to.plan->compute->host_reference(
        ref, static_cast<std::int64_t>(to.window.shift), m.payload.data(),
        m.payload.size(), m.seed);
  }
  return std::memcmp(mem + to.window.base, ref, to.window.bytes) == 0;
}

std::string MessageDriver::unfinished() const {
  std::vector<std::uint64_t> ids;
  for (const auto& [id, m] : live_) {
    const spin::NicModel::MsgInfo* info = nics_[m.to.node]->info(id);
    if (!m.failed && (info == nullptr || !info->done)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  std::string out;
  for (std::size_t i = 0; i < std::min<std::size_t>(ids.size(), 8); ++i) {
    out += ", msg " + std::to_string(ids[i]);
  }
  return ids.size() > 8 ? out + ", ..." : out;
}

void MessageDriver::drain(std::uint64_t expected) {
  engine_.run();
  NETDDT_CHECK(offered_ == expected && completed_ + failed_ == offered_,
               std::to_string(expected) + " messages expected, " +
                   std::to_string(offered_) + " offered, " +
                   std::to_string(completed_) + " completed, " +
                   std::to_string(failed_) + " failed" + unfinished());
  for (auto it = live_.begin(); it != live_.end();) {
    NETDDT_CHECK(it->second.held || it->second.failed,
                 "msg " + std::to_string(it->first) + " retained past done");
    it = release(it);
  }
  for (auto& nic : nics_) {
    if (nic != nullptr) nic->metrics().finalize_series(engine_.now());
  }
}

}  // namespace netddt::offload
