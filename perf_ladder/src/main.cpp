// perf_ladder: one benchmark for simulated and simulator performance,
// end to end and per layer.
//
// A run measures one workload (workloads.hpp) in one process, on the
// calling thread only:
//
//   1. set-up, repeated (5x, median -> setup_s): empty the dataloop
//      cache, build the inputs from the seed, run one untimed cold pass.
//      The cold pass also yields the simulated section.
//   2. timed passes until --seconds have elapsed (at least 3); host_s is
//      the sum over the pass's simulation calls of each call's fastest
//      time (Timing). Every pass must reproduce the cold pass's
//      simulated digest.
//
// The calibration kernels (calibration.hpp) run after every set-up and
// every timed pass; setup_s and host_s are scaled by them to the
// reference host speed.
//
// With --trace PATH the run instead splits --seconds between untraced
// and traced passes (simulator stage stats + blame ledger on, host-time
// spans recorded around every layer call), takes the simulated section
// from a traced pass — it must equal the untraced one — then times each
// layer's entry points on the workload's own inputs (layers.hpp) and
// writes the spans to PATH as Chrome trace-event JSON.
//
// Every receive is byte-verified; a mismatch is a failed operation.
// Simulated quantities repeat exactly at any seed (workloads.hpp), so
// they are reported dimensionless — throughput, and latency as slowdown
// over the message's line-rate wire time — and no simulated number
// reads as a host time. The JSON keeps the microsecond tails beside them.
//
// usage: perf_ladder --workload NAME --seed N --json PATH
//                    [--seconds S] [--trace PATH] [--smoke]
//   --smoke: reduced sizes, one set-up, one timed pass (the ctest checks).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/lib/json.hpp"
#include "calibration.hpp"
#include "common.hpp"
#include "dataloop/cache.hpp"
#include "layers.hpp"
#include "sim/trace/blame.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using netddt::bench::Json;
using namespace perf_ladder;
namespace blame = netddt::sim::trace;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string json_path;
  std::string trace_path;
  double seconds = 12.0;  // BENCHMARK.json run_seconds
  bool smoke = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --json PATH "
               "[--seconds S] [--trace PATH] [--smoke]\nworkloads:",
               argv0);
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      a.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || *text == '-') return false;
      have_seed = true;
    } else if (flag == "--json" && has_value) {
      a.json_path = argv[++i];
    } else if (flag == "--trace" && has_value) {
      a.trace_path = argv[++i];
    } else if (flag == "--seconds" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      a.seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && !a.json_path.empty();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Json metric(double value, const char* unit) {
  Json j = Json::object();
  j["value"] = value;
  j["unit"] = unit;
  return j;
}

double quantile(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : netddt::sim::percentile(xs, p);
}

double median(const std::vector<double>& xs) { return quantile(xs, 50.0); }

/// Host-time samples (pass durations, set-up repetitions) with their
/// quartiles.
Json quartiles_json(const std::vector<double>& xs) {
  Json j = Json::object();
  j["n"] = static_cast<std::uint64_t>(xs.size());
  j["q1"] = quantile(xs, 25.0);
  j["median"] = median(xs);
  j["q3"] = quantile(xs, 75.0);
  Json all = Json::array();
  for (const double x : xs) all.push_back(x);
  j["samples"] = std::move(all);
  return j;
}

Json calibration_json(const Calibration& c) {
  Json j = Json::object();
  j["core_s"] = c.core_s();
  j["memory_s"] = c.memory_s();
  j["scale"] = c.scale();
  return j;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every per-layer metric, in output order, with its unit. Layers a
/// workload does not run report 0 (see SimLayers).
std::vector<std::pair<std::string, const char*>> per_layer_defs() {
  std::vector<std::pair<std::string, const char*>> d = {
      {"dataloop.segment_pack_gbps", "GB/s"},
      {"dataloop.segment_unpack_gbps", "GB/s"},
      {"dataloop.program_pack_gbps", "GB/s"},
      {"dataloop.program_unpack_gbps", "GB/s"},
      {"dataloop.memcpy_gbps", "GB/s"},
      {"dataloop.compile_us", "us"},
      {"dataloop.program_compile_us", "us"},
      {"ddt.pack_gbps", "GB/s"},
      {"ddt.unpack_gbps", "GB/s"},
      {"sim.engine_ns_per_event", "ns"},
      {"host_ns_per_pkt", "ns"},
      {"p4.match_ns_per_op.posted_peak", "ns"},
      {"p4.match_ns_per_op.posted_10k", "ns"},
      {"trace_overhead", "x"},
  };
  for (const char* cohort : {"p50", "p99"}) {
    for (std::size_t s = 0; s + 1 < blame::kBlameStageCount; ++s) {
      d.emplace_back(std::string("blame.") + cohort + "." +
                         blame::blame_stage_name(
                             static_cast<blame::BlameStage>(s)),
                     "share");
    }
  }
  const std::pair<const char*, const char*> tail[] = {
      {"nic.dma.writes_per_pkt", "per_pkt"},
      {"nic.sched.hpu_busy_frac", "share"},
      {"nic.pkts.deferred", "count"},
      {"offload.checkpoint.copies", "count"},
      {"offload.rollbacks", "count"},
      {"offload.catchup_blocks", "count"},
      {"offload.evictions", "count"},
      {"offload.host_fallbacks", "count"},
      {"fabric.hops_per_pkt", "hops"},
      {"fabric.queue_wait_per_hop", "pkt_times"},
      {"fabric.blocked_per_pkt", "per_pkt"},
      {"fabric.retransmits_per_drop", "ratio"},
      {"fabric.acks_per_pkt", "per_pkt"},
  };
  for (const auto& [name, unit] : tail) d.emplace_back(name, unit);
  for (const double load : service_load_grid()) {
    char name[48];
    std::snprintf(name, sizeof name, "svc.p99_slowdown.load%.2f", load);
    d.emplace_back(name, "x");
  }
  d.emplace_back("svc.capacity_load", "fraction");
  return d;
}

/// The per-layer metrics that come from the traced pass's simulation:
/// blame cohort shares, NIC/offload counters, fabric ratios.
std::map<std::string, double> simulated_layers(const SimLayers& L) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  std::map<std::string, double> v;
  if (!L.blame.empty()) {
    const auto cohorts = blame::blame_cohorts(L.blame, 99.0);
    for (std::size_t s = 0; s + 1 < blame::kBlameStageCount; ++s) {
      const std::string stage =
          blame::blame_stage_name(static_cast<blame::BlameStage>(s));
      v["blame.p50." + stage] = cohorts.median_share[s];
      v["blame.p99." + stage] = cohorts.tail_share[s];
    }
  }
  v["nic.dma.writes_per_pkt"] = ratio(d(L.dma_writes), d(L.nic_pkts));
  v["nic.sched.hpu_busy_frac"] = ratio(L.handler_ps, L.hpu_ps);
  v["nic.pkts.deferred"] = d(L.deferred);
  v["offload.checkpoint.copies"] = d(L.checkpoint_copies);
  v["offload.rollbacks"] = d(L.rollbacks);
  v["offload.catchup_blocks"] = d(L.catchup_blocks);
  v["offload.evictions"] = d(L.evictions);
  v["offload.host_fallbacks"] = d(L.host_fallbacks);
  v["fabric.hops_per_pkt"] = ratio(d(L.hop_passes), d(L.wire_pkts));
  v["fabric.queue_wait_per_hop"] =
      ratio(ratio(d(L.queue_wait_ps), d(L.hop_passes)),
            L.pkt_serialization_ps);
  v["fabric.blocked_per_pkt"] = ratio(d(L.blocked), d(L.wire_pkts));
  v["fabric.retransmits_per_drop"] = ratio(d(L.retransmits), d(L.drops));
  v["fabric.acks_per_pkt"] = ratio(d(L.acks), d(L.wire_pkts));
  return v;
}

struct RunState {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  bool consistent = true;  // every pass reproduced the cold pass

  void absorb(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.digest.value() != digest) consistent = false;
  }
};

/// Host time of a series of passes. The shared host alternates, in
/// episodes of seconds, between its normal speed and about 1.4x slower,
/// so a median pass depends on how much of the run fell into slow
/// episodes; each simulation call's fastest time over the passes does
/// not. Over minutes the normal speed itself drifts, by 30 % and more,
/// and the calibration kernels, run after every pass, drift with it.
/// host_s() is the sum of the fastest call times, scaled to the
/// reference speed.
struct Timing {
  std::vector<double> pass_s;       // each pass, whole
  std::vector<double> best_call_s;  // each call, fastest over the passes
  Calibration calibration;

  double best_s() const {
    double sum = 0.0;
    for (const double s : best_call_s) sum += s;
    return sum;
  }
  double host_s() const { return best_s() * calibration.scale(); }

  /// False when a pass made a different number of calls.
  bool add(const PassResult& r, double pass_seconds) {
    pass_s.push_back(pass_seconds);
    if (best_call_s.empty()) best_call_s = r.call_s;
    if (best_call_s.size() != r.call_s.size()) return false;
    for (std::size_t i = 0; i < r.call_s.size(); ++i) {
      best_call_s[i] = std::min(best_call_s[i], r.call_s[i]);
    }
    return true;
  }
};

/// Run passes until `budget_s` has elapsed and at least `min_passes`
/// ran. `first` receives the first pass's result (the only one that
/// summarizes).
Timing timed_passes(Workload& w, const PassOptions& opts, double budget_s,
                    std::size_t min_passes, RunState& st, PassResult* first) {
  Timing t;
  const auto start = Clock::now();
  while (t.pass_s.size() < min_passes || seconds_since(start) < budget_s) {
    PassOptions o = opts;
    o.summarize = opts.summarize && t.pass_s.empty();
    const auto t0 = Clock::now();
    PassResult r = w.pass(o);
    if (!t.add(r, seconds_since(t0))) st.consistent = false;
    t.calibration.run();
    st.absorb(r);
    if (first != nullptr && t.pass_s.size() == 1) *first = std::move(r);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage(argv[0]);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return usage(argv[0]);
  }
  const bool traced = !args.trace_path.empty();
  SpanRecorder spans(traced);
  SpanRecorder quiet(false);

  // --- 1. set-up: inputs + cold pass, repeated --------------------------
  RunState st;
  std::vector<double> setup_s;
  Calibration setup_calibration;
  std::unique_ptr<Workload> w;
  PassResult cold;
  const int setups = args.smoke || traced ? 1 : 5;
  for (int i = 0; i < setups; ++i) {
    {
      auto span = spans.span("setup", /*new_call=*/true);
      const auto t0 = Clock::now();
      netddt::dataloop::dataloop_cache_clear();
      w = make_workload(args.workload, args.seed, args.smoke);
      cold = w->pass({.trace = false, .summarize = true, .spans = &spans});
      setup_s.push_back(seconds_since(t0));
    }
    setup_calibration.run();
    if (i == 0) st.digest = cold.digest.value();
    st.absorb(cold);
  }

  // --- 2. timed passes ---------------------------------------------------
  const std::size_t min_passes = args.smoke ? 1 : 3;
  const double budget =
      args.smoke ? 0.0 : traced ? args.seconds / 2 : args.seconds;
  const Timing passes =
      timed_passes(*w, {.spans = &quiet}, budget, min_passes, st, nullptr);
  const double host_s = passes.host_s();

  Json simulated = cold.simulated;
  Json per_layer = Json::object();
  Json layer_detail;
  Timing traced_passes;
  if (traced) {
    // --- 3. traced passes + layer microbenchmarks ------------------------
    PassResult tp;
    {
      auto span = spans.span("traced passes", /*new_call=*/true);
      traced_passes = timed_passes(
          *w, {.trace = true, .summarize = true, .spans = &spans}, budget,
          args.smoke ? 1 : 2, st, &tp);
    }
    simulated = tp.simulated;
    layer_detail = tp.layer_detail;
    std::map<std::string, double> v = simulated_layers(tp.layers);

    const ByteEngines be = measure_byte_engines(
        w->layouts(), args.smoke ? 256u << 10 : 4u << 20, spans);
    st.attempted += be.checked;
    st.failed += be.mismatches;
    v["dataloop.segment_pack_gbps"] = be.segment_pack_gbps;
    v["dataloop.segment_unpack_gbps"] = be.segment_unpack_gbps;
    v["dataloop.program_pack_gbps"] = be.program_pack_gbps;
    v["dataloop.program_unpack_gbps"] = be.program_unpack_gbps;
    v["dataloop.memcpy_gbps"] = be.memcpy_gbps;
    v["dataloop.compile_us"] = be.compile_us;
    v["dataloop.program_compile_us"] = be.program_compile_us;
    v["ddt.pack_gbps"] = be.ddt_pack_gbps;
    v["ddt.unpack_gbps"] = be.ddt_unpack_gbps;
    v["sim.engine_ns_per_event"] =
        engine_ns_per_event(args.smoke ? 200'000 : 2'000'000, spans);
    v["host_ns_per_pkt"] =
        ratio(host_s * 1e9, static_cast<double>(cold.packets));
    const std::uint64_t match_ops = args.smoke ? 20'000 : 500'000;
    for (const auto& [name, posted] :
         {std::pair<const char*, std::uint64_t>{
              "p4.match_ns_per_op.posted_peak", tp.posted_depth},
          {"p4.match_ns_per_op.posted_10k", 10'000}}) {
      const auto ns = match_ns_per_op(posted, match_ops, spans);
      st.attempted += 1;
      if (!ns) st.failed += 1;
      v[name] = ns.value_or(0.0);
    }
    v["trace_overhead"] = ratio(traced_passes.host_s(), host_s);
    const ExtraLayers extra = w->extra_layers(spans);
    st.attempted += extra.attempted;
    st.failed += extra.failed;
    for (const auto& [name, value] : extra.values) v[name] = value;
    for (const auto& [name, unit] : per_layer_defs()) {
      per_layer[name] = metric(v.count(name) ? v[name] : 0.0, unit);
    }
  }

  const bool correct = st.failed == 0 && st.consistent &&
                       simulated.is_object() && st.attempted > 0;
  Json e2e = Json::object();
  e2e["setup_s"] = metric(median(setup_s) * setup_calibration.scale(), "s");
  e2e["host_s"] = metric(host_s, "s");
  e2e["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
  for (const char* name : {"sim_gbps", "sim_p50_slowdown", "sim_p99_slowdown",
                           "sim_p999_slowdown"}) {
    const Json* x = simulated.find(name);
    e2e[name] = metric(x != nullptr ? x->as_double() : 0.0,
                       std::strcmp(name, "sim_gbps") == 0 ? "Gbit/s" : "x");
  }

  Json doc = Json::object();
  doc["benchmark"] = "perf_ladder";
  doc["schema_version"] = 1;
  doc["workload"] = args.workload;
  doc["seed"] = args.seed;
  doc["smoke"] = args.smoke;
  doc["traced"] = traced;
  doc["correct"] = correct;
  doc["attempted"] = st.attempted;
  doc["failed"] = st.failed;
  doc["end_to_end"] = e2e;
  if (traced) doc["per_layer"] = per_layer;
  Json host = Json::object();
  // Raw host seconds; the end-to-end times are these scaled to the
  // reference speed.
  host["setup_s"] = quartiles_json(setup_s);
  host["setup_calibration"] = calibration_json(setup_calibration);
  host["pass_s"] = quartiles_json(passes.pass_s);
  host["calls_per_pass"] =
      static_cast<std::uint64_t>(passes.best_call_s.size());
  host["best_calls_s"] = passes.best_s();
  host["pass_calibration"] = calibration_json(passes.calibration);
  if (traced) host["traced_pass_s"] = quartiles_json(traced_passes.pass_s);
  host["packets_per_pass"] = cold.packets;
  host["threads"] = 1;
  doc["host"] = std::move(host);
  doc["simulated"] = simulated;
  doc["simulated_digest"] = cold.digest.hex();
  if (traced) doc["layer_detail"] = layer_detail;

  std::printf("perf_ladder %s seed %llu%s: %s, %llu attempted, %llu failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              traced ? " (traced)" : "", correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(st.attempted),
              static_cast<unsigned long long>(st.failed));
  const auto print = [](const Json& section) {
    for (const auto& [name, m] : section.members()) {
      std::printf("  %-36s %14.6g %s\n", name.c_str(),
                  m.find("value")->as_double(),
                  m.find("unit")->as_string().c_str());
    }
  };
  print(e2e);
  if (traced) print(per_layer);

  std::ofstream out(args.json_path, std::ios::binary);
  if (!out || !(out << doc.dump(2) << "\n")) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  if (traced && !spans.write_chrome(args.trace_path,
                                    "perf_ladder/" + args.workload)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
    return 1;
  }
  return 0;
}
