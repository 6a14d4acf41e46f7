#include "offload/service.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "offload/driver.hpp"
#include "sim/stats.hpp"
#include "sim/trace/sampler.hpp"

namespace netddt::offload {
namespace {

/// Message ids / match bits encode (tenant, sequence): tenants own
/// disjoint high-bit prefixes, which is also what gives the matching
/// unit its per-peer hash buckets (see p4/match.hpp).
std::uint64_t msg_key(std::uint32_t tenant, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(tenant + 1) << 40) | seq;
}

struct Arrival {
  std::uint32_t tenant = 0;
  std::uint64_t seq = 0;
  sim::Time at = 0;
};

struct ServiceState {
  const ServiceConfig* config = nullptr;
  MessageDriver* driver = nullptr;
  DdtEngine* facade = nullptr;
  std::vector<SlotPool> slots;
  std::vector<DdtEngine::TypeHandle> handles;
  std::vector<TenantStats> stats;
  std::vector<sim::ArrivalFeed> feeds;  // per tenant
  sim::TelemetrySampler* sampler = nullptr;

  std::deque<Arrival> pending;  // awaiting admission, arrival order
  std::uint64_t messages = 0;   // the schedule's total
  std::uint64_t peak_inflight = 0;

  void on_arrival(const Arrival& a);
  void admit(const Arrival& a);
  void finish(const Message& m, sim::Time when);
  void release(const Message& m);
};

void ServiceState::on_arrival(const Arrival& a) {
  TenantStats& ts = stats[a.tenant];
  if (ts.offered == 0 || a.at < ts.first_arrival) ts.first_arrival = a.at;
  ts.offered += 1;
  if (driver->in_flight() >= config->max_inflight) {
    ts.backpressured += 1;
    pending.push_back(a);
    return;
  }
  admit(a);
}

void ServiceState::admit(const Arrival& a) {
  const ServiceTenant& tenant = config->tenants[a.tenant];
  const std::uint64_t key = msg_key(a.tenant, a.seq);
  const Window slot = slots[a.tenant].take();
  const std::uint64_t every = config->verify_every;
  const Landing to = driver->post(
      {.bits = key,
       .window = slot,
       .check = Landing::Check::kRegions,
       .verify = every > 0 && a.seq % every == 0,
       .type = tenant.type,
       .count = tenant.count},
      *facade, handles[a.tenant]);
  if (to.check == Landing::Check::kPacked) {
    stats[a.tenant].host_fallbacks += 1;  // lands packed at slot.at()
  }
  // Each message carries its own seeded pattern so verification can
  // tell messages of the same tenant apart.
  driver->offer({.id = key,
                 .to = to,
                 .seed = config->seed * 0x10001 + key,
                 .arrival = a.at},
                tenant.type->size() * tenant.count);
  peak_inflight = std::max(peak_inflight, driver->in_flight());
}

void ServiceState::finish(const Message& m, sim::Time when) {
  TenantStats& ts = stats[(m.id >> 40) - 1];
  if (m.failed) {
    ts.failed += 1;
  } else {
    ts.completed += 1;
    ts.bytes += m.payload.size();
    ts.last_done = std::max(ts.last_done, when);
    ts.completion.add(when - m.arrival);
  }
  if (driver->completed() + driver->failed() == messages &&
      sampler != nullptr) {
    sampler->stop();
  }
  if (!pending.empty() && driver->in_flight() < config->max_inflight) {
    const Arrival next = pending.front();
    pending.pop_front();
    admit(next);
  }
}

void ServiceState::release(const Message& m) {
  if (m.held || m.failed) return;  // the drain: nothing left to admit
  slots[(m.id >> 40) - 1].release(m.to.window, driver->host(1).memory());
}

}  // namespace

Window SlotPool::take() {
  Window slot = first_;
  if (free_.empty()) {
    slot.base += static_cast<std::int64_t>(fresh_++ * slot.bytes);
  } else {
    slot.base = free_.back();
    free_.pop_back();
  }
  return slot;
}

void SlotPool::release(const Window& slot, std::span<std::byte> memory) {
  std::memset(memory.data() + slot.base, 0, slot.bytes);
  free_.push_back(slot.base);
}

ServiceRun run_service(const ServiceConfig& config) {
  if (config.tenants.empty()) {
    throw std::invalid_argument("ServiceConfig.tenants must not be empty");
  }
  if (config.max_inflight == 0) {
    throw std::invalid_argument("ServiceConfig.max_inflight must be > 0");
  }
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    const ServiceTenant& t = config.tenants[i];
    const auto bad = [i](const char* what) {
      return std::invalid_argument("ServiceConfig.tenants[" +
                                   std::to_string(i) + "]." + what);
    };
    if (t.type == nullptr) throw bad("type must be set");
    if (t.count == 0) throw bad("count must be > 0");
    if (t.messages == 0) throw bad("messages must be > 0");
  }
  ServiceState st;
  st.config = &config;
  std::uint64_t host_bytes = 64;
  for (const auto& t : config.tenants) {
    Window slot = receive_window(*t.type, t.count);
    // The slot must hold the scattered layout *and* a packed host-fallback
    // landing, whichever the facade picks for any given message.
    const std::uint64_t need =
        std::max(slot.bytes, slot.shift + t.type->size() * t.count) + 64;
    slot.bytes = (need + 63) & ~std::uint64_t{63};
    slot.base = static_cast<std::int64_t>(host_bytes);
    // Room for one slot per message, as a lossy run holds every slot to
    // the drain; a lossless run touches only its admission window's
    // worth, and calloc'd pages nothing touches cost nothing.
    host_bytes += slot.bytes * t.messages;
    st.slots.emplace_back(slot);
    st.messages += t.messages;
  }
  st.stats.resize(config.tenants.size());

  // Node 0 only sends; node 1 receives through the facade.
  MessageDriver driver(World{.fabric = fabric::point_to_point(config.cost),
                             .nic = {config.hpus, config.nicmem_bytes},
                             .host_bytes = {0, host_bytes},
                             .trace = config.trace,
                             .faults = config.faults,
                             .retransmit = config.retransmit});
  spin::NicModel& nic = driver.nic(1);
  DdtEngine facade(nic);
  st.driver = &driver;
  st.facade = &facade;

  std::optional<sim::TelemetrySampler> sampler;
  if (config.telemetry_period > 0) {
    sampler.emplace(driver.engine(), nic.metrics(), config.telemetry_period);
    sampler->set_tracer(driver.tracer());
    // Every probe reads state the components already maintain; the
    // gauges referenced here are registered eagerly by their owners,
    // so sampling adds "telemetry.*" series and nothing else.
    sampler->probe("svc.inflight", [d = &driver] {
      return static_cast<double>(d->in_flight());
    });
    sampler->probe("nic.match.posted", [n = &nic] {
      return static_cast<double>(n->match_list().priority_size() +
                                 n->match_list().overflow_size());
    });
    sampler->probe("nic.mem.used_bytes", [n = &nic] {
      return static_cast<double>(n->metrics().gauge("nic.mem.used").value());
    });
    sampler->probe("nic.sched.busy_frac", [n = &nic, hpus = config.hpus] {
      return static_cast<double>(n->scheduler().busy()) /
             static_cast<double>(hpus);
    });
    sampler->probe("nic.dma.queue_depth", [n = &nic] {
      return static_cast<double>(n->dma().queue_depth());
    });
    sampler->probe("link.port_backlog_us", [d = &driver] {
      const sim::Time backlog =
          std::max<sim::Time>(0, d->fabric().port_free(0) - d->engine().now());
      return static_cast<double>(backlog) / 1e6;
    });
    st.sampler = &*sampler;
    sampler->start();
  }

  for (const auto& t : config.tenants) {
    st.handles.push_back(facade.commit(t.type, t.attrs));
  }

  driver.on_finish = std::bind_front(&ServiceState::finish, &st);
  driver.on_release = std::bind_front(&ServiceState::release, &st);

  // Every tenant's arrival schedule, its tickets drawn in tenant order;
  // arrivals enter the engine one per tenant (sim::ArrivalFeed). The
  // rest of the run is driven by the DES and the NIC's completion
  // callback.
  st.feeds.reserve(config.tenants.size());
  for (std::uint32_t t = 0; t < config.tenants.size(); ++t) {
    sim::ArrivalConfig ac = config.tenants[t].arrivals;
    ac.seed ^= config.seed;
    st.feeds.emplace_back(ac, /*stream=*/t, driver.engine(),
                          config.tenants[t].messages);
  }
  for (std::uint32_t t = 0; t < config.tenants.size(); ++t) {
    st.feeds[t].start([state = &st, t](std::uint64_t seq, sim::Time at) {
      state->on_arrival({t, seq, at});
    });
  }
  driver.drain(st.messages);

  ServiceRun run;
  run.peak_inflight = st.peak_inflight;
  run.verified = driver.verified() + driver.mismatched();
  run.verify_failures = driver.mismatched();
  run.evictions = facade.evictions();
  run.host_fallbacks = facade.host_fallbacks();
  run.put_failures = driver.failed();
  run.engine_peak_pending = driver.engine().max_pending();
  run.metrics = nic.metrics().snapshot();
  if (driver.tracer() != nullptr && driver.tracer()->blame() != nullptr) {
    run.blame = driver.tracer()->blame()->completed();
  }
  run.tracer = driver.take_tracer();

  sim::Time first = 0, last = 0;
  bool any = false;
  std::vector<double> shares;
  std::uint64_t total_bytes = 0;
  for (auto& ts : st.stats) {
    if (ts.completed > 0) {
      const sim::Time dt = std::max<sim::Time>(ts.last_done -
                                               ts.first_arrival, 1);
      // bytes/ps * 8 bits * 1e12 ps/s / 1e9 = Gbit/s.
      ts.goodput_gbps = static_cast<double>(ts.bytes) * 8.0 * 1000.0 /
                        static_cast<double>(dt);
      if (!any || ts.first_arrival < first) first = ts.first_arrival;
      last = std::max(last, ts.last_done);
      any = true;
    }
    shares.push_back(ts.goodput_gbps);
    total_bytes += ts.bytes;
  }
  run.fairness = sim::jain_index(shares);
  if (any) {
    run.makespan = last - first;
    run.goodput_gbps = static_cast<double>(total_bytes) * 8.0 * 1000.0 /
                       static_cast<double>(std::max<sim::Time>(run.makespan,
                                                               1));
  }
  for (std::size_t t = 0; t < st.stats.size(); ++t) {
    st.stats[t].host_slots = st.slots[t].fresh();
  }
  run.tenants = std::move(st.stats);
  return run;
}

}  // namespace netddt::offload
