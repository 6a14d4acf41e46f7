#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "apps/workloads.hpp"
#include "fabric/collectives.hpp"
#include "offload/runner.hpp"
#include "offload/service.hpp"
#include "p4/packet.hpp"
#include "spin/cost_model.hpp"

namespace perf_ladder {

using netddt::bench::Json;
namespace ddt = netddt::ddt;
namespace offload = netddt::offload;
namespace fabric = netddt::fabric;
namespace sim = netddt::sim;
using offload::StrategyKind;

namespace {

// Every workload runs the default cost model (200 Gbit/s, 2 KiB packets).
const netddt::spin::CostModel kCost{};

/// NIC-registry sums shared by the runner and the service.
void add_nic_layers(SimLayers& l, const sim::MetricsSnapshot& m) {
  l.nic_pkts += m.counter("nic.pkts.delivered");
  l.dma_writes += m.counter("nic.dma.writes");
  l.deferred += m.counter("nic.pkts.deferred");
  l.checkpoint_copies += m.counter("offload.checkpoint.copies");
  l.rollbacks += m.counter("offload.rollbacks");
  l.catchup_blocks += m.counter("offload.catchup_blocks");
  l.evictions += m.counter("offload.evictions");
  l.host_fallbacks += m.counter("offload.host_fallbacks");
  l.handler_ps += static_cast<double>(m.counter("nic.sched.handler_time_ps"));
}

/// Median/p99/p99.9 of per-message slowdowns (completion time over the
/// message's line-rate wire time) plus the same tail in microseconds.
void put_latency(Json& out, const std::vector<double>& latency_us,
                 const std::vector<double>& slowdown) {
  const Tail s = Tail::of(slowdown);
  const Tail us = Tail::of(latency_us);
  out["sim_p50_slowdown"] = s.p50;
  out["sim_p99_slowdown"] = s.p99;
  out["sim_p999_slowdown"] = s.p999;
  out["samples"] = s.n;
  Json lat = Json::object();
  lat["p50"] = us.p50;
  lat["p99"] = us.p99;
  lat["p999"] = us.p999;
  lat["supports_p99"] = us.supports(99.0);
  lat["supports_p999"] = us.supports(99.9);
  out["latency_us"] = std::move(lat);
}

Json blame_shares(const sim::trace::BlameAttribution& a) {
  Json j = Json::object();
  for (std::size_t s = 0; s < sim::trace::kBlameStageCount; ++s) {
    if (a.stage[s] == 0) continue;
    j[sim::trace::blame_stage_name(static_cast<sim::trace::BlameStage>(s))] =
        static_cast<double>(a.stage[s]) / static_cast<double>(a.total);
  }
  return j;
}

// --- closed-loop receive sweeps (vector_sweep, app_ddts) -----------------

class ReceiveSweep : public Workload {
 public:
  struct Case {
    std::string label;
    ddt::TypePtr type;
    std::uint64_t count = 1;
  };

  ReceiveSweep(std::vector<Case> cases, std::vector<StrategyKind> offloaded,
               std::uint64_t seed)
      : cases_(std::move(cases)), offloaded_(std::move(offloaded)),
        seed_(seed) {}

  PassResult pass(const PassOptions& opts) override {
    PassResult out;
    std::vector<double> gbps, speedup, latency_us, slowdown;
    Json points = Json::array();
    Json blame_points = Json::array();
    for (const Case& c : cases_) {
      // Host baseline first: every offloaded point's speedup divides by it.
      const offload::ReceiveRun host = receive(c, StrategyKind::kHostUnpack,
                                               opts, out);
      for (const StrategyKind kind : offloaded_) {
        offload::ReceiveRun run = receive(c, kind, opts, out);
        const offload::ReceiveResult& r = run.result;
        add_nic_layers(out.layers, run.metrics);
        out.layers.hpu_ps += static_cast<double>(r.e2e_time) * kHpus;
        if (run.blame) {
          out.layers.blame.push_back(*run.blame);
          Json b = Json::object();
          b["case"] = c.label;
          b["strategy"] = std::string(offload::strategy_name(kind));
          b["shares"] = blame_shares(*run.blame);
          blame_points.push_back(std::move(b));
        }
        if (!opts.summarize) continue;
        const double sp = static_cast<double>(host.result.msg_time) /
                          static_cast<double>(r.msg_time);
        gbps.push_back(r.throughput_gbps());
        speedup.push_back(sp);
        latency_us.push_back(sim::to_us(r.e2e_time));
        slowdown.push_back(sim::to_us(r.e2e_time) /
                           wire_us(r.message_bytes, kCost.line_rate_gbps));
        Json p = Json::object();
        p["case"] = c.label;
        p["strategy"] = std::string(offload::strategy_name(kind));
        p["gbps"] = r.throughput_gbps();
        p["msg_us"] = sim::to_us(r.msg_time);
        p["speedup"] = sp;
        points.push_back(std::move(p));
      }
    }
    if (opts.trace) out.layer_detail = std::move(blame_points);
    if (opts.summarize) {
      Json s = Json::object();
      s["sim_gbps"] = geomean(gbps);
      put_latency(s, latency_us, slowdown);
      s["sim_speedup"] = geomean(speedup);
      s["points"] = std::move(points);
      out.simulated = std::move(s);
    }
    return out;
  }

  std::vector<Layout> layouts() const override {
    std::vector<Layout> out;
    for (const Case& c : cases_) out.push_back({c.label, c.type, c.count});
    return out;
  }

 private:
  static constexpr std::uint32_t kHpus = 16;  // ReceiveConfig default

  offload::ReceiveRun receive(const Case& c, StrategyKind kind,
                              const PassOptions& opts, PassResult& out) {
    offload::ReceiveConfig cfg;
    cfg.type = c.type;
    cfg.count = c.count;
    cfg.strategy = kind;
    cfg.hpus = kHpus;
    cfg.seed = seed_;
    cfg.verify = true;
    cfg.trace.stats = opts.trace;
    cfg.trace.blame = opts.trace;
    offload::ReceiveRun run;
    {
      auto span = opts.spans->span(
          "offload::run_receive " + c.label + " " +
              std::string(offload::strategy_name(kind)),
          /*new_call=*/true);
      const auto t0 = Clock::now();
      run = offload::run_receive(cfg);
      out.call_s.push_back(seconds_since(t0));
    }
    const offload::ReceiveResult& r = run.result;
    out.attempted += 1;
    if (!r.verified) out.failed += 1;
    out.packets += r.packets;
    out.digest.add(static_cast<std::uint64_t>(r.e2e_time));
    out.digest.add(static_cast<std::uint64_t>(r.msg_time));
    out.digest.add(r.dma_writes);
    out.digest.add(r.packets);
    return run;
  }

  std::vector<Case> cases_;
  std::vector<StrategyKind> offloaded_;
  std::uint64_t seed_;
};

std::unique_ptr<Workload> vector_sweep(std::uint64_t seed, bool smoke) {
  const std::int64_t message = smoke ? 256 << 10 : 4 << 20;
  std::vector<ReceiveSweep::Case> cases;
  for (const std::int64_t block : {16, 128, 2048}) {
    cases.push_back({std::to_string(block) + "B",
                     ddt::Datatype::hvector(message / block, block,
                                            2 * block, ddt::Datatype::int8()),
                     1});
  }
  return std::make_unique<ReceiveSweep>(
      std::move(cases),
      std::vector<StrategyKind>{StrategyKind::kSpecialized,
                                StrategyKind::kRwCp, StrategyKind::kRoCp,
                                StrategyKind::kHpuLocal},
      seed);
}

std::unique_ptr<Workload> app_ddts(std::uint64_t seed, bool smoke) {
  auto apps = netddt::apps::fig16_workloads();
  if (smoke) apps.resize(std::min<std::size_t>(apps.size(), 6));
  std::vector<ReceiveSweep::Case> cases;
  for (auto& w : apps) {
    cases.push_back({w.app + "-" + w.input, std::move(w.type), w.count});
  }
  return std::make_unique<ReceiveSweep>(
      std::move(cases),
      std::vector<StrategyKind>{StrategyKind::kRwCp,
                                StrategyKind::kSpecialized,
                                StrategyKind::kIovec},
      seed);
}

// --- open-loop service (service_poisson) ---------------------------------

class ServicePoisson : public Workload {
 public:
  explicit ServicePoisson(bool smoke) : messages_(smoke ? 500 : 5000) {}

  PassResult pass(const PassOptions& opts) override {
    // Exact per-message latencies come from the blame ledger (the
    // service keeps only log2 histograms otherwise), so the summarizing
    // pass turns it on; the timed passes leave it off.
    auto [run, out] = run_at(kLoad, opts.summarize || opts.trace, opts.trace,
                             *opts.spans);
    for (const auto& t : run.tenants) {
      out.digest.add(t.completed);
      out.digest.add(static_cast<std::uint64_t>(t.last_done));
    }
    out.digest.add(run.goodput_gbps);
    out.digest.add(static_cast<std::uint64_t>(run.makespan));
    out.digest.add(run.peak_inflight);
    out.digest.add(run.evictions);
    out.digest.add(run.host_fallbacks);
    add_nic_layers(out.layers, run.metrics);
    out.layers.hpu_ps = static_cast<double>(run.makespan) * kHpus;
    out.layers.blame = run.blame;
    out.posted_depth = std::max<std::uint64_t>(run.peak_inflight, 1);
    if (opts.summarize) {
      std::vector<double> latency_us, slowdown;
      for (const auto& a : run.blame) {
        latency_us.push_back(sim::to_us(a.total));
        slowdown.push_back(sim::to_us(a.total) /
                           wire_us(kMsgBytes, kCost.line_rate_gbps));
      }
      Json s = Json::object();
      s["sim_gbps"] = run.goodput_gbps;
      put_latency(s, latency_us, slowdown);
      s["fairness"] = run.fairness;
      s["peak_inflight"] = run.peak_inflight;
      s["completed"] = static_cast<std::uint64_t>(run.blame.size());
      out.simulated = std::move(s);
    }
    return out;
  }

  std::vector<Layout> layouts() const override {
    const auto tenants = make_tenants(kLoad);
    return {{"strided", tenants[0].type, tenants[0].count},
            {"contiguous", tenants[1].type, tenants[1].count}};
  }

  /// The load grid: exact p99 (as slowdown) at each load, and the
  /// highest load up to which every point keeps p99 <= 20 us, completes
  /// every offered message and stays inside the admission window.
  ExtraLayers extra_layers(SpanRecorder& spans) override {
    ExtraLayers out;
    double capacity = 0.0;
    bool holding = true;
    for (const double load : service_load_grid()) {
      auto [run, res] = run_at(load, /*blame=*/true, /*stats=*/false, spans);
      out.attempted += res.attempted;
      out.failed += res.failed;
      std::vector<double> us;
      for (const auto& a : run.blame) us.push_back(sim::to_us(a.total));
      const double p99 = Tail::of(us).p99;
      const bool ok = p99 <= kSloUs && res.failed == 0 &&
                      run.peak_inflight < kWindow;
      if (holding && ok) capacity = load;
      holding = holding && ok;
      char name[48];
      std::snprintf(name, sizeof name, "svc.p99_slowdown.load%.2f", load);
      out.values.emplace_back(name,
                              p99 / wire_us(kMsgBytes, kCost.line_rate_gbps));
    }
    out.values.emplace_back("svc.capacity_load", capacity);
    return out;
  }

 private:
  static constexpr std::uint64_t kMsgBytes = 16 << 10;
  static constexpr std::uint64_t kWindow = 1024;
  static constexpr std::uint32_t kHpus = 16;
  static constexpr double kLoad = 0.8;
  static constexpr double kSloUs = 20.0;
  // run_service draws both the payload and the arrival streams from
  // ServiceConfig::seed, and the arrivals must not move with the
  // benchmark's seed (see workloads.hpp). svc_load's default seed.
  static constexpr std::uint64_t kServiceSeed = 1;

  std::vector<offload::ServiceTenant> make_tenants(double load) const {
    // Aggregate offered bit-rate = load x line rate, split evenly.
    const double msgs_per_s =
        load * kCost.line_rate_gbps * 1e9 / (kMsgBytes * 8.0) / 2.0;
    std::vector<offload::ServiceTenant> tenants(2);
    tenants[0].type = ddt::Datatype::hvector(16, 512, 1024,
                                             ddt::Datatype::int8());
    tenants[0].count = kMsgBytes / (16 * 512);
    tenants[1].type = ddt::Datatype::contiguous(
        static_cast<std::int64_t>(kMsgBytes), ddt::Datatype::int8());
    tenants[1].count = 1;
    for (auto& t : tenants) {
      t.arrivals.rate = msgs_per_s;
      t.messages = messages_;
    }
    return tenants;
  }

  std::pair<offload::ServiceRun, PassResult> run_at(double load, bool blame,
                                                     bool stats,
                                                     SpanRecorder& spans) {
    offload::ServiceConfig cfg;
    cfg.tenants = make_tenants(load);
    cfg.hpus = kHpus;
    cfg.max_inflight = kWindow;
    cfg.seed = kServiceSeed;
    cfg.verify_every = 1;
    cfg.trace.blame = blame;
    cfg.trace.stats = stats;
    offload::ServiceRun run;
    PassResult out;
    {
      char name[64];
      std::snprintf(name, sizeof name, "offload::run_service load %.2f",
                    load);
      auto span = spans.span(name, /*new_call=*/true);
      const auto t0 = Clock::now();
      run = offload::run_service(cfg);
      out.call_s.push_back(seconds_since(t0));
    }
    std::uint64_t completed = 0;
    for (const auto& t : run.tenants) {
      out.attempted += t.offered;
      completed += t.completed;
    }
    out.failed = run.verify_failures + run.put_failures +
                 (out.attempted - completed);
    out.packets =
        completed * netddt::p4::packet_count(kMsgBytes, kCost.pkt_payload);
    return {std::move(run), std::move(out)};
  }

  std::uint64_t messages_;
};

// --- multi-node fabric collectives ---------------------------------------

class FabricCollective : public Workload {
 public:
  explicit FabricCollective(fabric::CollectiveConfig cfg)
      : cfg_(std::move(cfg)) {}

  PassResult pass(const PassOptions& opts) override {
    fabric::CollectiveRun run;
    PassResult out;
    {
      auto span = opts.spans->span(
          std::string("fabric::run_collective ") +
              fabric::collective_name(cfg_.kind),
          /*new_call=*/true);
      const auto t0 = Clock::now();
      run = fabric::run_collective(cfg_);
      out.call_s.push_back(seconds_since(t0));
    }
    const sim::MetricsSnapshot& m = run.fabric_metrics;
    const std::uint64_t per_msg = netddt::p4::packet_count(
        cfg_.block_bytes, cfg_.fabric.cost.pkt_payload);
    out.attempted = run.messages;
    out.failed = run.failed + run.mismatched_windows;
    SimLayers& l = out.layers;
    l.retransmits = m.counter("fabric.retransmits");
    l.drops = m.counter("fabric.drops");
    l.acks = m.counter("fabric.acks");
    l.blocked = m.counter("fabric.blocked");
    l.hop_passes = m.counter("fabric.pkts");
    l.queue_wait_ps = m.counter("fabric.queue_wait_ps");
    l.wire_pkts = run.messages * per_msg + l.retransmits;
    l.pkt_serialization_ps =
        static_cast<double>(cfg_.fabric.cost.pkt_payload) * 8.0 /
        (cfg_.fabric.cost.line_rate_gbps * 1e-3);
    out.packets = l.wire_pkts;
    out.posted_depth = static_cast<std::uint64_t>(cfg_.rounds) *
                       (cfg_.fabric.topology.nodes - 1);
    out.digest.add(run.goodput_gbps);
    out.digest.add(static_cast<std::uint64_t>(run.makespan));
    out.digest.add(run.completed);
    out.digest.add(run.verified_windows);
    for (const auto& [name, v] : m.counters) out.digest.add(v);
    for (const double us : run.completion_us) out.digest.add(us);
    if (opts.summarize) {
      std::vector<double> slowdown;
      slowdown.reserve(run.completion_us.size());
      for (const double us : run.completion_us) {
        slowdown.push_back(us / wire_us(cfg_.block_bytes,
                                         cfg_.fabric.cost.line_rate_gbps));
      }
      Json s = Json::object();
      s["sim_gbps"] = run.goodput_gbps;
      put_latency(s, run.completion_us, slowdown);
      s["completed"] = run.completed;
      s["verified_windows"] = run.verified_windows;
      s["retransmits"] = l.retransmits;
      s["drops"] = l.drops;
      out.simulated = std::move(s);
    }
    return out;
  }

  std::vector<Layout> layouts() const override {
    if (cfg_.kind == fabric::CollectiveKind::kReduceScatter) {
      // The in-NIC reduction lands one contiguous int32 block per round.
      return {{"reduce_block",
               ddt::Datatype::contiguous(
                   static_cast<std::int64_t>(cfg_.block_bytes / 4),
                   ddt::Datatype::int32()),
               1}};
    }
    // collectives.cpp's landing type: 256-byte rows every 320 bytes.
    return {{"alltoall_slot",
             ddt::Datatype::hvector(
                 static_cast<std::int64_t>(cfg_.block_bytes / 256), 256, 320,
                 ddt::Datatype::int8()),
             1}};
  }

 private:
  fabric::CollectiveConfig cfg_;
};

fabric::CollectiveConfig fabric_config(fabric::CollectiveKind kind,
                                       double load, std::uint64_t seed,
                                       bool smoke) {
  fabric::CollectiveConfig cc;
  cc.kind = kind;
  cc.fabric.topology.nodes = smoke ? 16 : 64;
  cc.block_bytes = smoke ? 2048 : 8192;
  cc.rounds = smoke ? 2 : 4;
  // Round rate such that one node's injection port is `load` busy:
  // (P-1) blocks of 8 * block bits per round.
  cc.arrivals.rate =
      load * cc.fabric.cost.line_rate_gbps * 1e9 /
      (static_cast<double>(cc.fabric.topology.nodes - 1) *
       static_cast<double>(cc.block_bytes) * 8.0);
  // The arrival streams (arrivals.seed) and the fault plan (faults.seed)
  // keep their defaults, fabric_collectives' schedule; CollectiveConfig::
  // seed only fills the payloads.
  cc.seed = seed;
  cc.verify = true;
  return cc;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "vector_sweep", "app_ddts", "service_poisson", "fabric_alltoall",
      "fabric_reduce_lossy"};
  return names;
}

std::vector<double> service_load_grid() {
  std::vector<double> g;
  for (int i = 10; i <= 22; ++i) g.push_back(i * 0.05);  // 0.50 .. 1.10
  return g;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "vector_sweep") return vector_sweep(seed, smoke);
  if (name == "app_ddts") return app_ddts(seed, smoke);
  if (name == "service_poisson") {
    return std::make_unique<ServicePoisson>(smoke);
  }
  if (name == "fabric_alltoall") {
    return std::make_unique<FabricCollective>(fabric_config(
        fabric::CollectiveKind::kAlltoall, 0.8, seed, smoke));
  }
  if (name == "fabric_reduce_lossy") {
    auto cc = fabric_config(fabric::CollectiveKind::kReduceScatter, 0.5,
                            seed, smoke);
    cc.faults.drop_rate = 0.02;
    cc.faults.dup_rate = 0.02;
    cc.faults.reorder_rate = 0.05;
    return std::make_unique<FabricCollective>(std::move(cc));
  }
  return nullptr;
}

}  // namespace perf_ladder
