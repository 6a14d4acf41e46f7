#pragma once
// Experiment registry + CLI of the harness. Each figure binary declares
// its sweep as a NETDDT_EXPERIMENT(name, "title") { ... } body taking
// (Report& report, const Params& params); the same translation unit
// builds either as a standalone binary (NETDDT_BENCH_STANDALONE defined
// by the build -> NETDDT_BENCH_MAIN() expands to a real main) or as one
// registrant inside bench/run_all, which enumerates every experiment.
//
// CLI (both standalone and run_all):
//   --hpus N --epsilon X --blocks N --seed N --line-rate G   overrides
//   --json PATH    write the schema-versioned JSON document
//   --jobs N       run experiments + sweep points on N threads
//                  (0 = hardware concurrency; output stays bit-identical)
//   --perf         add wall_ms / events_per_sec to report + JSON
//   --trace PATH   write a Chrome trace-event JSON of every run
//   --trace-limit N  cap the recorded events per run (default 1M)
//   --percentiles  add per-stage latency percentiles to report + JSON
//   --smoke        trimmed sweeps (CI)
//   --list         print registered experiment ids and exit
//   --only a,b,c   run a subset (run_all)

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/lib/parallel.hpp"
#include "bench/lib/report.hpp"
#include "dataloop/program.hpp"
#include "sim/faults/faults.hpp"
#include "sim/trace/chrome.hpp"
#include "sim/trace/trace.hpp"

namespace netddt::bench {

/// Ordered fan-out of sweep points (bench/lib/parallel.hpp). Construct
/// with `params.executor`, submit one closure per point, then collect()
/// the results in submission order and build tables serially:
///
///   Sweep<offload::ReceiveRun> sweep(params.executor);
///   for (auto p : points) sweep.submit([p, cfg] { return run_one(p); });
///   auto runs = sweep.collect();   // submission order -> same output
using parallel::Sweep;

/// Sweep overrides. The *_or helpers return the override or the
/// experiment's default AND record the effective value in the report's
/// parameter echo, so the JSON always states what actually ran.
class Params {
 public:
  std::optional<std::uint32_t> hpus;
  std::optional<double> epsilon;
  std::optional<std::uint64_t> blocks;  // block size (bytes)
  std::optional<std::uint64_t> seed;
  std::optional<double> line_rate;  // Gbit/s
  /// --pack-engine: byte-moving engine for the functional pack/unpack
  /// paths (Segment interpreter vs compiled flat program). Echoed ONLY
  /// when explicitly set: program mode legitimately changes the report
  /// (dataloop.program.* counters appear), but default runs must stay
  /// byte-identical to historical JSON.
  std::optional<dataloop::PackEngine> pack_engine;
  /// --net-model: which network carries fig19's all-to-alls ("loggp" |
  /// "fabric"; validated by the CLI). Echoed ONLY when explicitly set:
  /// fabric mode legitimately changes the report, but default runs must
  /// stay byte-identical to historical JSON. Kept as a string so the
  /// harness library does not depend on the goal/fabric layers.
  std::optional<std::string> net_model;
  std::optional<double> drop_rate;          // --drop-rate
  std::optional<double> dup_rate;           // --dup-rate
  std::optional<double> reorder_rate;       // --reorder-rate
  std::optional<std::uint64_t> fault_seed;  // --fault-seed
  bool smoke = false;
  bool percentiles = false;  // --percentiles
  std::optional<std::string> trace_path;        // --trace
  std::optional<std::uint64_t> trace_limit;     // --trace-limit
  /// Accumulates the tracers of this experiment's traced runs. Each
  /// experiment gets a PRIVATE collector (bench_main merges them in
  /// submission order afterwards), so concurrent experiments never
  /// share one.
  std::shared_ptr<sim::trace::Collector> collector;
  /// Shared thread pool for Sweep fan-out (never null inside an
  /// experiment body run by bench_main; inline/serial when --jobs 1).
  parallel::Executor* executor = nullptr;

  std::uint32_t hpus_or(std::uint32_t def) const {
    return echo("hpus", hpus.value_or(def));
  }
  double epsilon_or(double def) const {
    return echo("epsilon", epsilon.value_or(def));
  }
  std::uint64_t blocks_or(std::uint64_t def) const {
    return echo("blocks", blocks.value_or(def));
  }
  std::uint64_t seed_or(std::uint64_t def) const {
    return echo("seed", seed.value_or(def));
  }
  double line_rate_or(double def) const {
    return echo("line_rate_gbps", line_rate.value_or(def));
  }
  /// Echo-when-set — see the field comment.
  std::string net_model_or(const char* def) const {
    if (!net_model) return def;
    echo("net_model", *net_model);
    return *net_model;
  }
  /// Echo-when-set — see the field comment.
  dataloop::PackEngine pack_engine_or(dataloop::PackEngine def) const {
    if (!pack_engine) return def;
    echo("pack_engine",
         std::string(dataloop::pack_engine_name(*pack_engine)));
    return *pack_engine;
  }
  /// Effective wire-fault config for experiments that model a lossy
  /// wire: CLI overrides applied on top of `def`, with every rate and
  /// the fault seed echoed into the report. Experiments that never call
  /// this keep their parameter echo (and JSON) free of fault fields —
  /// the reliability layer stays inert for them.
  sim::faults::FaultConfig faults_or(
      const sim::faults::FaultConfig& def) const {
    sim::faults::FaultConfig fc = def;
    fc.drop_rate = echo("drop_rate", drop_rate.value_or(def.drop_rate));
    fc.dup_rate = echo("dup_rate", dup_rate.value_or(def.dup_rate));
    fc.reorder_rate =
        echo("reorder_rate", reorder_rate.value_or(def.reorder_rate));
    fc.seed = echo("fault_seed", fault_seed.value_or(def.seed));
    return fc;
  }

  /// TraceConfig for a simulation run under the current flags: events
  /// when --trace was given (stats ride along so the exported document
  /// carries stage summaries), stats alone for --percentiles, all-off
  /// otherwise — the zero-cost default. Any observed run also keeps the
  /// blame ledger, so traces and percentile reports always carry the
  /// critical-path decomposition.
  sim::trace::TraceConfig trace_config() const {
    sim::trace::TraceConfig tc;
    tc.events = trace_path.has_value();
    tc.stats = tc.events || percentiles;
    tc.blame = tc.events || tc.stats;
    if (trace_limit) tc.max_events = static_cast<std::size_t>(*trace_limit);
    return tc;
  }

  /// Hand a finished run's tracer to the harness: folds the stage
  /// histograms into the report (--percentiles) and files the event
  /// timeline under `label` for the trace document (--trace). Accepts
  /// null (tracing disabled) so call sites stay unconditional.
  void observe(Report& report, std::unique_ptr<sim::trace::Tracer> tracer,
               const std::string& label) const {
    if (tracer == nullptr) return;
    if (percentiles) report.stage_latencies(*tracer);
    if (collector != nullptr) collector->add(label, std::move(tracer));
  }

  /// Bind the report that receives the parameter echoes. bench_main
  /// gives every experiment its own Params COPY bound to that
  /// experiment's report before the run — a Params is never shared
  /// between concurrently running experiments, which is what makes the
  /// echo-through-pointer pattern thread-safe.
  void bind(Report* report) { report_ = report; }

 private:
  template <typename T>
  T echo(const char* name, T value) const {
    if (report_ != nullptr) report_->param(name, Json{value});
    return value;
  }
  Report* report_ = nullptr;
};

struct Experiment {
  std::string name;   // stable id, e.g. "fig08"
  std::string title;
  void (*run)(Report&, const Params&) = nullptr;
};

/// All experiments registered in this binary, sorted by name.
const std::vector<Experiment>& experiments();

struct Registration {
  Registration(const char* name, const char* title,
               void (*run)(Report&, const Params&));
};

/// Shared main: parse flags, run the selected experiments, print the
/// human tables, optionally write the JSON document. Returns exit code.
int bench_main(int argc, char** argv);

/// The document bench_main writes for --json (exposed for tests):
/// {"schema_version": .., "generator": .., "experiments": [...]}.
Json make_document(const std::vector<Json>& experiment_reports);

inline constexpr int kSchemaVersion = 1;

#define NETDDT_EXPERIMENT(name_, title_)                                    \
  static void netddt_experiment_##name_(::netddt::bench::Report&,           \
                                        const ::netddt::bench::Params&);    \
  static const ::netddt::bench::Registration netddt_registration_##name_{   \
      #name_, title_, &netddt_experiment_##name_};                          \
  static void netddt_experiment_##name_(                                    \
      [[maybe_unused]] ::netddt::bench::Report& report,                     \
      [[maybe_unused]] const ::netddt::bench::Params& params)

#if defined(NETDDT_BENCH_STANDALONE)
#define NETDDT_BENCH_MAIN()                                \
  int main(int argc, char** argv) {                        \
    return ::netddt::bench::bench_main(argc, argv);        \
  }
#else
#define NETDDT_BENCH_MAIN()
#endif

}  // namespace netddt::bench
