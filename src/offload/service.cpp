#include "offload/service.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "fabric/fabric.hpp"
#include "offload/runner.hpp"
#include "p4/put.hpp"
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

/// Per-tenant receive-buffer geometry (one dedicated slot per message,
/// so late verification of any sampled message stays sound).
struct TenantGeometry {
  std::uint64_t msg_bytes = 0;
  std::int64_t shift = 0;       // lift negative-lb layouts into the slot
  std::uint64_t stride = 0;     // slot size, 64-byte aligned
  std::int64_t base = 0;        // first slot's offset in host memory
};

TenantGeometry tenant_geometry(const ServiceTenant& t) {
  TenantGeometry g;
  g.msg_bytes = t.type->size() * t.count;
  const std::int64_t lo =
      std::min({std::int64_t{0}, t.type->lb(), t.type->true_lb()});
  const std::int64_t hi =
      std::max({std::int64_t{0}, t.type->ub(), t.type->true_ub()});
  g.shift = -lo;
  const std::uint64_t span =
      static_cast<std::uint64_t>(t.type->extent()) * (t.count - 1) +
      static_cast<std::uint64_t>(hi);
  // The slot must hold the scattered layout *and* a packed host-fallback
  // landing, whichever the facade picks for any given message.
  const std::uint64_t need = static_cast<std::uint64_t>(g.shift) +
                             std::max(span, g.msg_bytes) + 64;
  g.stride = (need + 63) & ~std::uint64_t{63};
  return g;
}

struct MsgRecord {
  std::uint32_t tenant = 0;
  std::uint64_t seq = 0;
  sim::Time arrival = 0;
  bool host_path = false;  // facade fell back: packed landing
  // Packet data spans into these bytes. A lossless message frees them
  // when it retires; a lossy one moves them to the run-scoped graveyard,
  // since a late duplicate can still read them after the message retires
  // (see Fabric::send_reliable).
  std::vector<std::byte> packed;
};

struct ServiceState {
  const ServiceConfig* config = nullptr;
  sim::Engine* engine = nullptr;
  spin::Host* host = nullptr;
  spin::NicModel* nic = nullptr;
  fabric::Fabric* link = nullptr;  // point-to-point: node 0 -> node 1
  DdtEngine* facade = nullptr;

  std::vector<TenantGeometry> geometry;
  std::vector<DdtEngine::TypeHandle> handles;
  std::vector<TenantStats> stats;

  sim::trace::BlameLedger* blame = nullptr;
  sim::TelemetrySampler* sampler = nullptr;

  std::unordered_map<std::uint64_t, MsgRecord> live;
  std::deque<std::uint64_t> pending;  // awaiting admission, arrival order
  std::uint64_t inflight = 0;
  std::uint64_t peak_inflight = 0;
  std::uint64_t verified = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t put_failures = 0;
  std::uint64_t remaining = 0;  // offered messages not yet retired
  // See MsgRecord: buffers of retired lossy messages live here until
  // the engine drains.
  std::vector<std::vector<std::byte>> graveyard_packed;

  void on_arrival(std::uint32_t tenant, std::uint64_t seq, sim::Time at);
  void admit(std::uint64_t key);
  void on_done(std::uint64_t key, sim::Time when);
  void on_put_failed(std::uint64_t key);
  void retire(std::unordered_map<std::uint64_t, MsgRecord>::iterator it);
  bool verify(const MsgRecord& rec) const;
};

void ServiceState::on_arrival(std::uint32_t tenant, std::uint64_t seq,
                              sim::Time at) {
  TenantStats& ts = stats[tenant];
  if (ts.offered == 0 || at < ts.first_arrival) ts.first_arrival = at;
  ts.offered += 1;
  const std::uint64_t key = msg_key(tenant, seq);
  MsgRecord& rec = live[key];
  rec.tenant = tenant;
  rec.seq = seq;
  rec.arrival = at;
  if (blame != nullptr) blame->open(key, at);
  if (inflight >= config->max_inflight) {
    ts.backpressured += 1;
    pending.push_back(key);
    return;
  }
  admit(key);
}

void ServiceState::admit(std::uint64_t key) {
  MsgRecord& rec = live.at(key);
  const ServiceTenant& tenant = config->tenants[rec.tenant];
  const TenantGeometry& g = geometry[rec.tenant];
  const std::int64_t slot =
      g.base + static_cast<std::int64_t>(rec.seq * g.stride);

  const DdtEngine::PostResult post = facade->post_receive(
      handles[rec.tenant], tenant.count, slot + g.shift, g.stride,
      /*match_bits=*/key);
  rec.host_path = post.strategy == StrategyKind::kHostUnpack;
  if (rec.host_path) stats[rec.tenant].host_fallbacks += 1;

  // Each message carries its own seeded pattern so verification can
  // tell messages of the same tenant apart.
  rec.packed = packed_message_pattern(
      g.msg_bytes, config->seed * 0x10001 + key);
  if (blame != nullptr) {
    // Backpressure wait: arrival -> this admission (empty if immediate).
    blame->interval(key, sim::trace::BlameStage::kAdmission, rec.arrival,
                    engine->now());
  }
  const sim::faults::FaultPlan plan(config->faults, key);
  if (plan.active()) {
    link->send_reliable(
        0, 1, p4::packetize(key, key, rec.packed, config->cost.pkt_payload),
        engine->now(), plan, config->retransmit,
        [this, key](sim::Time, bool ok) {
          if (!ok) on_put_failed(key);
        });
  } else {
    // One hop: the fabric copies each packet at injection.
    link->send(0, 1,
               p4::packetize(key, key, rec.packed, config->cost.pkt_payload),
               engine->now());
  }

  inflight += 1;
  peak_inflight = std::max(peak_inflight, inflight);
}

bool ServiceState::verify(const MsgRecord& rec) const {
  const ServiceTenant& tenant = config->tenants[rec.tenant];
  const TenantGeometry& g = geometry[rec.tenant];
  const std::int64_t slot =
      g.base + static_cast<std::int64_t>(rec.seq * g.stride);
  const std::byte* mem = host->memory().data();
  if (g.msg_bytes == 0) return true;
  if (rec.host_path) {
    // Host fallback: the slot holds the raw packed stream.
    return std::memcmp(mem + slot + g.shift, rec.packed.data(),
                       g.msg_bytes) == 0;
  }
  return regions_hold_stream(mem + slot + g.shift, tenant.type, tenant.count,
                             rec.packed, dataloop::PackEngine::kInterpreter,
                             config->cost.pkt_payload);
}

void ServiceState::on_done(std::uint64_t key, sim::Time when) {
  const auto it = live.find(key);
  if (it == live.end()) return;  // not a service-managed message
  MsgRecord& rec = it->second;
  TenantStats& ts = stats[rec.tenant];
  ts.completed += 1;
  ts.bytes += geometry[rec.tenant].msg_bytes;
  ts.last_done = std::max(ts.last_done, when);
  ts.completion.add(when - rec.arrival);
  if (blame != nullptr) blame->close(key, when);

  const std::uint64_t every = config->verify_every;
  if (every > 0 && rec.seq % every == 0) {
    verified += 1;
    if (!verify(rec)) verify_failures += 1;
  }
  retire(it);
}

void ServiceState::on_put_failed(std::uint64_t key) {
  const auto it = live.find(key);
  if (it == live.end()) return;
  stats[it->second.tenant].failed += 1;
  put_failures += 1;
  // No close(): the blame ledger only accounts completed messages, and
  // the NIC will never finish this one (the completion packet is never
  // released once a data packet exhausts its retries).
  retire(it);
}

void ServiceState::retire(
    std::unordered_map<std::uint64_t, MsgRecord>::iterator it) {
  MsgRecord& rec = it->second;
  if (config->faults.active()) {
    graveyard_packed.push_back(std::move(rec.packed));
  }
  live.erase(it);

  assert(remaining > 0);
  remaining -= 1;
  if (remaining == 0 && sampler != nullptr) sampler->stop();

  inflight -= 1;
  if (!pending.empty() && inflight < config->max_inflight) {
    const std::uint64_t next = pending.front();
    pending.pop_front();
    admit(next);
  }
}

}  // namespace

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
  st.geometry.reserve(config.tenants.size());
  std::uint64_t host_bytes = 64;
  for (const auto& t : config.tenants) {
    TenantGeometry g = tenant_geometry(t);
    g.base = static_cast<std::int64_t>(host_bytes);
    host_bytes += g.stride * t.messages;
    st.geometry.push_back(std::move(g));
  }
  st.stats.resize(config.tenants.size());

  sim::Engine engine;
  spin::Host host(host_bytes);
  spin::NicModel nic(engine, host, config.cost,
                     spin::NicConfig{config.hpus, config.nicmem_bytes});
  fabric::Fabric link(engine, fabric::point_to_point(nic.cost()));
  link.attach(1, nic);
  DdtEngine facade(nic);
  st.engine = &engine;
  st.host = &host;
  st.nic = &nic;
  st.link = &link;
  st.facade = &facade;
  for (const auto& t : config.tenants) st.remaining += t.messages;

  std::unique_ptr<sim::trace::Tracer> tracer;
  if (config.trace.any()) {
    tracer = std::make_unique<sim::trace::Tracer>(config.trace);
    engine.set_tracer(tracer.get());
    nic.set_tracer(tracer.get());  // before the facade builds contexts
    st.blame = tracer->blame();
  }

  std::optional<sim::TelemetrySampler> sampler;
  if (config.telemetry_period > 0) {
    sampler.emplace(engine, nic.metrics(), config.telemetry_period);
    sampler->set_tracer(tracer.get());
    // Every probe reads state the components already maintain; the
    // gauges referenced here are registered eagerly by their owners,
    // so sampling adds "telemetry.*" series and nothing else.
    sampler->probe("svc.inflight",
                   [state = &st] { return static_cast<double>(state->inflight); });
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
    sampler->probe("link.port_backlog_us", [l = &link, e = &engine] {
      const sim::Time backlog =
          std::max<sim::Time>(0, l->port_free(0) - e->now());
      return static_cast<double>(backlog) / 1e6;
    });
    st.sampler = &*sampler;
    sampler->start();
  }

  for (const auto& t : config.tenants) {
    st.handles.push_back(facade.commit(t.type, t.attrs));
  }

  nic.set_msg_done_callback([state = &st](std::uint64_t key, sim::Time when) {
    state->on_done(key, when);
  });

  // Precompute every tenant's arrival schedule (single-threaded, tenant
  // order) and post the arrival events; the rest of the run is driven
  // by the DES and the NIC's completion callback.
  for (std::uint32_t t = 0; t < config.tenants.size(); ++t) {
    sim::ArrivalConfig ac = config.tenants[t].arrivals;
    ac.seed ^= config.seed;
    sim::ArrivalProcess arrivals(ac, /*stream=*/t);
    for (std::uint64_t seq = 0; seq < config.tenants[t].messages; ++seq) {
      const sim::Time at = arrivals.next();
      engine.schedule_at(at, [state = &st, t, seq, at] {
        state->on_arrival(t, seq, at);
      });
    }
  }

  engine.run();
  assert(st.live.empty() && st.pending.empty() &&
         "service run drained with messages outstanding");

  nic.metrics().finalize_series(engine.now());

  ServiceRun run;
  run.peak_inflight = st.peak_inflight;
  run.verified = st.verified;
  run.verify_failures = st.verify_failures;
  run.evictions = facade.evictions();
  run.host_fallbacks = facade.host_fallbacks();
  run.put_failures = st.put_failures;
  run.metrics = nic.metrics().snapshot();
  if (st.blame != nullptr) run.blame = st.blame->completed();
  run.tracer = std::move(tracer);

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
  run.tenants = std::move(st.stats);
  return run;
}

}  // namespace netddt::offload
