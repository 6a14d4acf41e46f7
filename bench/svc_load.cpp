// svc_load: the NIC as a steady-state service. Two tenants offer
// receives on independent open-loop clocks (sim/arrivals.hpp) through
// the MPI facade onto one NIC; the sweep raises the offered load from
// well under the line rate to past saturation and reports
//   (a) sustained goodput + Jain's fairness index vs offered load,
//   (b) completion-time tails (p50 / p99 / p99.9) vs offered load,
//   (c) tail inflation of ON/OFF bursty arrivals vs Poisson at one
//       fixed operating point.
//
// Expectation: goodput tracks the offered load until the wire
// saturates, then flattens while the completion tail explodes (queueing
// at the shared injection port + admission window); fairness stays ~1
// for the symmetric offered rates; bursty arrivals inflate p99.9 well
// before they dent goodput.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/lib/experiment.hpp"
#include "ddt/datatype.hpp"
#include "offload/service.hpp"
#include "sim/time.hpp"
#include "sim/trace/blame.hpp"

using namespace netddt;

namespace {

// One message = 16 KiB of payload per tenant. Tenant 0 receives into a
// strided layout (the interesting offload path), tenant 1 into a
// contiguous one — same bytes, different handler work.
constexpr std::uint64_t kMsgBytes = 16ull << 10;

offload::ServiceTenant make_tenant(bool strided, double rate_msgs_per_s,
                                   sim::ArrivalKind kind,
                                   std::uint64_t messages) {
  offload::ServiceTenant t;
  if (strided) {
    t.type = ddt::Datatype::hvector(16, 512, 1024, ddt::Datatype::int8());
    t.count = kMsgBytes / (16 * 512);
  } else {
    t.type = ddt::Datatype::contiguous(
        static_cast<std::int64_t>(kMsgBytes), ddt::Datatype::int8());
    t.count = 1;
  }
  t.arrivals.kind = kind;
  t.arrivals.rate = rate_msgs_per_s;
  t.messages = messages;
  return t;
}

offload::ServiceRun run_point(double load_fraction, sim::ArrivalKind kind,
                              double line_rate_gbps, std::uint32_t hpus,
                              std::uint64_t messages,
                              std::uint64_t max_inflight,
                              std::uint64_t seed,
                              const sim::faults::FaultConfig& faults,
                              const sim::trace::TraceConfig& trace,
                              sim::Time telemetry_period) {
  // Aggregate offered bit-rate = load_fraction * line rate, split
  // evenly over the two tenants.
  const double msgs_per_s =
      load_fraction * line_rate_gbps * 1e9 / (kMsgBytes * 8.0) / 2.0;
  offload::ServiceConfig cfg;
  cfg.cost.line_rate_gbps = line_rate_gbps;
  cfg.hpus = hpus;
  cfg.max_inflight = max_inflight;
  cfg.seed = seed;
  cfg.faults = faults;
  cfg.trace = trace;
  cfg.telemetry_period = telemetry_period;
  cfg.tenants.push_back(make_tenant(true, msgs_per_s, kind, messages));
  cfg.tenants.push_back(make_tenant(false, msgs_per_s, kind, messages));
  return offload::run_service(cfg);
}

bench::Cell cell_us(const sim::trace::Histogram& h, double p) {
  return bench::cell(h.percentile(p) / 1e6, 1);  // ps -> us
}

// Completion-time percentile over both tenants' messages (merged by
// bucket; the histograms use identical log2 bucketing).
sim::trace::Histogram merged(const offload::ServiceRun& run) {
  sim::trace::Histogram h = run.tenants[0].completion;
  h.merge(run.tenants[1].completion);
  return h;
}

}  // namespace

NETDDT_EXPERIMENT(svc_load, "service goodput, fairness and tails vs load") {
  const double line_rate = params.line_rate_or(200.0);
  const std::uint32_t hpus = params.hpus_or(16);
  const std::uint64_t seed = params.seed_or(1);

  // Full mode: >=1200 messages per tenant behind a 1024-deep admission
  // window — the >=1k-concurrent steady state the refactor targets.
  std::vector<double> loads = {0.3, 0.6, 0.9, 1.1};
  std::uint64_t messages = 1200;
  std::uint64_t max_inflight = 1024;
  double burst_point = 0.9;
  if (params.smoke) {
    loads = {0.3, 0.9};
    messages = 96;
    max_inflight = 64;
  }
  report.param("messages_per_tenant", bench::Json{messages});
  report.param("max_inflight", bench::Json{max_inflight});
  report.param("msg_bytes", bench::Json{kMsgBytes});

  // Wire faults from the CLI (inert by default: the reliability layer
  // engages only when a rate is nonzero). Blame is always on — the
  // tail-vs-median table below is this experiment's core output — and
  // the telemetry sampler turns the service gauges into time series.
  const sim::faults::FaultConfig faults = params.faults_or({});
  sim::trace::TraceConfig trace = params.trace_config();
  trace.blame = true;
  const sim::Time telemetry_period =
      params.smoke ? 5'000'000 : 20'000'000;  // 5 us smoke, 20 us full
  report.param("telemetry_period_us",
               bench::Json{static_cast<double>(telemetry_period) / 1e6});

  bench::Sweep<offload::ServiceRun> sweep(params.executor);
  for (double load : loads) {
    sweep.submit([=] {
      return run_point(load, sim::ArrivalKind::kPoisson, line_rate, hpus,
                       messages, max_inflight, seed, faults, trace,
                       telemetry_period);
    });
  }
  for (auto kind : {sim::ArrivalKind::kPoisson, sim::ArrivalKind::kOnOff}) {
    sweep.submit([=] {
      return run_point(burst_point, kind, line_rate, hpus, messages,
                       max_inflight, seed, faults, trace,
                       telemetry_period);
    });
  }
  auto runs = sweep.collect();
  std::size_t i = 0;

  auto& a = report.table("svc_load a: goodput and fairness vs offered load",
                         {"load", "offered", "goodput", "fairness",
                          "backpressured"})
                .unit("Gbit/s, 2 tenants, Poisson arrivals");
  for (double load : loads) {
    const auto& r = runs[i++];
    report.counters(r.metrics);
    std::uint64_t waited = 0;
    for (const auto& ts : r.tenants) waited += ts.backpressured;
    a.row({bench::cell(load, 2), bench::cell(load * line_rate, 1),
           bench::cell(r.goodput_gbps, 1), bench::cell(r.fairness, 4),
           bench::cell(waited)});
  }

  auto& b = report.table("svc_load b: completion-time tail vs offered load",
                         {"load", "p50", "p99", "p99.9"})
                .unit("us, arrival -> unpack done");
  i = 0;
  for (double load : loads) {
    const auto h = merged(runs[i++]);
    b.row({bench::cell(load, 2), cell_us(h, 50), cell_us(h, 99),
           cell_us(h, 99.9)});
  }

  auto& c = report.table("svc_load c: burstiness at fixed load",
                         {"arrivals", "goodput", "fairness", "p50", "p99",
                          "p99.9"})
                .unit("Gbit/s / us, load 0.9");
  for (auto kind : {sim::ArrivalKind::kPoisson, sim::ArrivalKind::kOnOff}) {
    const auto& r = runs[i++];
    const auto h = merged(r);
    c.row({bench::cell(std::string(sim::arrival_kind_name(kind))),
           bench::cell(r.goodput_gbps, 1), bench::cell(r.fairness, 4),
           cell_us(h, 50), cell_us(h, 99), cell_us(h, 99.9)});
  }

  // (d) Where the time goes: per-stage blame shares of the median vs
  // tail cohort, one row per (load, stage) with any share. This is the
  // "p99 messages spend X% in the DMA queue; p50 messages spend Y%"
  // table — stages whose share is zero in both cohorts are elided.
  auto& d = report.table("svc_load d: critical-path blame, median vs tail",
                         {"load", "stage", "p50 share", "p99 share"})
                .unit("share of cohort completion time, Poisson arrivals");
  i = 0;
  for (double load : loads) {
    const auto& r = runs[i++];
    const auto cohorts = sim::trace::blame_cohorts(r.blame, 99.0);
    for (std::size_t s = 0; s < sim::trace::kBlameStageCount; ++s) {
      if (cohorts.median_share[s] <= 0.0 && cohorts.tail_share[s] <= 0.0) {
        continue;
      }
      d.row({bench::cell(load, 2),
             bench::cell(std::string(sim::trace::blame_stage_name(
                 static_cast<sim::trace::BlameStage>(s)))),
             bench::cell_percent(cohorts.median_share[s]),
             bench::cell_percent(cohorts.tail_share[s])});
    }
  }

  // (e) Sampled service telemetry at the saturated operating point,
  // decimated to at most ~48 rows so the table stays printable; the
  // full-resolution series are in the JSON-ignored metrics registry and
  // in the --trace document's counter tracks.
  {
    const auto& r = runs[loads.size() - 1];  // highest Poisson load
    auto series = [&](const char* name)
        -> const std::vector<std::pair<sim::Time, double>>* {
      const auto it = r.metrics.series.find(std::string("telemetry.") + name);
      return it == r.metrics.series.end() ? nullptr : &it->second;
    };
    const auto* inflight = series("svc.inflight");
    const auto* posted = series("nic.match.posted");
    const auto* mem = series("nic.mem.used_bytes");
    const auto* busy = series("nic.sched.busy_frac");
    const auto* dmaq = series("nic.dma.queue_depth");
    const auto* backlog = series("link.port_backlog_us");
    if (inflight != nullptr && !inflight->empty()) {
      auto& e = report.table("svc_load e: sampled telemetry at saturation",
                             {"t", "inflight", "match posted", "nic mem",
                              "hpu busy", "dma queue", "port backlog"})
                    .unit("us / samples, load " +
                          std::to_string(loads.back()).substr(0, 4));
      const std::size_t n = inflight->size();
      const std::size_t stride = n > 48 ? (n + 47) / 48 : 1;
      auto at = [&](const std::vector<std::pair<sim::Time, double>>* s,
                    std::size_t k) {
        return s != nullptr && k < s->size() ? (*s)[k].second : 0.0;
      };
      for (std::size_t k = 0; k < n; k += stride) {
        e.row({bench::cell(
                   static_cast<double>((*inflight)[k].first) / 1e6, 1),
               bench::cell(at(inflight, k), 0),
               bench::cell(at(posted, k), 0),
               bench::cell_bytes(at(mem, k)),
               bench::cell_percent(at(busy, k)),
               bench::cell(at(dmaq, k), 0),
               bench::cell(at(backlog, k), 1)});
      }
    }
  }

  // Hand the tracers to the harness (stage percentiles under
  // --percentiles, timeline export under --trace).
  i = 0;
  for (double load : loads) {
    char label[48];
    std::snprintf(label, sizeof label, "svc_load/load%.2f", load);
    params.observe(report, std::move(runs[i++].tracer), label);
  }
  for (auto kind : {sim::ArrivalKind::kPoisson, sim::ArrivalKind::kOnOff}) {
    params.observe(report, std::move(runs[i++].tracer),
                   "svc_load/burst_" +
                       std::string(sim::arrival_kind_name(kind)));
  }

  std::uint64_t verify_failures = 0;
  for (const auto& r : runs) verify_failures += r.verify_failures;
  report.param("verify_failures", bench::Json{verify_failures});
  std::uint64_t put_failures = 0;
  for (const auto& r : runs) put_failures += r.put_failures;
  report.param("put_failures", bench::Json{put_failures});
  report.note("goodput tracks offered load until the wire saturates, "
              "then the completion tail explodes while fairness holds; "
              "bursty arrivals inflate p99.9 before they dent goodput");
}

NETDDT_BENCH_MAIN()
