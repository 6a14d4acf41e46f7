#include "bench/lib/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

namespace netddt::bench {

namespace {

std::vector<Experiment>& registry() {
  static std::vector<Experiment> experiments;
  return experiments;
}

// Set by Registration, cleared by the lazy sort in experiments().
bool& registry_dirty() {
  static bool dirty = false;
  return dirty;
}

bool parse_u32(const char* s, std::uint32_t* out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_f64(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --hpus N        override the HPU count\n"
      "  --epsilon X     override the checkpoint epsilon\n"
      "  --blocks N      override the block size (bytes)\n"
      "  --seed N        override the experiment seed\n"
      "  --line-rate G   override the link rate (Gbit/s)\n"
      "  --pack-engine E byte engine: interpreter | program (default\n"
      "                  interpreter; experiments that stream bytes\n"
      "                  honor it, others ignore it)\n"
      "  --net-model M   fig19 network: loggp | fabric (default loggp;\n"
      "                  fabric runs the packet-level multi-node fabric)\n"
      "  --drop-rate P   wire packet-drop probability [0,1]\n"
      "  --dup-rate P    wire packet-duplication probability [0,1]\n"
      "  --reorder-rate P  wire packet-reorder probability [0,1]\n"
      "  --fault-seed N  seed of the fault schedule\n"
      "                  (fault flags apply to lossy-wire experiments,\n"
      "                  e.g. ablation_faults; others ignore them)\n"
      "  --json PATH     write the machine-readable report\n"
      "  --jobs N        thread count for experiments + sweep points\n"
      "                  (0 = hardware concurrency, default 1;\n"
      "                  output is bit-identical for every N)\n"
      "  --perf          report wall_ms / events_per_sec telemetry\n"
      "  --trace PATH    write a Chrome trace-event JSON (Perfetto)\n"
      "  --trace-limit N cap recorded events per run (default 1048576)\n"
      "  --percentiles   report per-stage latency percentiles\n"
      "  --smoke         trimmed sweeps (fast CI mode)\n"
      "  --list          print registered experiments and exit\n"
      "  --only a,b,c    run only the named experiments\n",
      argv0);
}

std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

const std::vector<Experiment>& experiments() {
  // Deterministic enumeration order regardless of link order. Sorted
  // lazily on first use instead of on every Registration (static-init
  // time was quadratic-ish in the number of figures linked into
  // run_all). Called from the main thread before any pool spins up.
  if (registry_dirty()) {
    std::sort(registry().begin(), registry().end(),
              [](const Experiment& a, const Experiment& b) {
                return a.name < b.name;
              });
    registry_dirty() = false;
  }
  return registry();
}

Registration::Registration(const char* name, const char* title,
                           void (*run)(Report&, const Params&)) {
  registry().push_back(Experiment{name, title, run});
  registry_dirty() = true;
}

Json make_document(const std::vector<Json>& experiment_reports) {
  Json doc = Json::object();
  doc["schema_version"] = Json{kSchemaVersion};
  doc["generator"] = Json{"netddt_bench"};
  Json exps = Json::array();
  for (const auto& e : experiment_reports) exps.push_back(e);
  doc["experiments"] = std::move(exps);
  return doc;
}

int bench_main(int argc, char** argv) {
  Params params;
  std::string json_path;
  std::vector<std::string> only;
  bool list_only = false;
  bool perf = false;
  std::uint32_t jobs = 1;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (std::strcmp(arg, "--list") == 0) {
      list_only = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      params.smoke = true;
    } else if (std::strcmp(arg, "--hpus") == 0) {
      const char* v = next();
      std::uint32_t n = 0;
      ok = v != nullptr && parse_u32(v, &n);
      if (ok) params.hpus = n;
    } else if (std::strcmp(arg, "--epsilon") == 0) {
      const char* v = next();
      double d = 0;
      ok = v != nullptr && parse_f64(v, &d);
      if (ok) params.epsilon = d;
    } else if (std::strcmp(arg, "--blocks") == 0) {
      const char* v = next();
      std::uint64_t n = 0;
      ok = v != nullptr && parse_u64(v, &n);
      if (ok) params.blocks = n;
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = next();
      std::uint64_t n = 0;
      ok = v != nullptr && parse_u64(v, &n);
      if (ok) params.seed = n;
    } else if (std::strcmp(arg, "--line-rate") == 0) {
      const char* v = next();
      double d = 0;
      ok = v != nullptr && parse_f64(v, &d);
      if (ok) params.line_rate = d;
    } else if (std::strcmp(arg, "--pack-engine") == 0) {
      const char* v = next();
      const auto kind =
          v != nullptr ? dataloop::parse_pack_engine(v) : std::nullopt;
      ok = kind.has_value();
      if (ok) params.pack_engine = *kind;
    } else if (std::strcmp(arg, "--net-model") == 0) {
      const char* v = next();
      ok = v != nullptr && (std::strcmp(v, "loggp") == 0 ||
                            std::strcmp(v, "fabric") == 0);
      if (ok) params.net_model = v;
    } else if (std::strcmp(arg, "--drop-rate") == 0) {
      const char* v = next();
      double d = 0;
      ok = v != nullptr && parse_f64(v, &d) && d >= 0.0 && d <= 1.0;
      if (ok) params.drop_rate = d;
    } else if (std::strcmp(arg, "--dup-rate") == 0) {
      const char* v = next();
      double d = 0;
      ok = v != nullptr && parse_f64(v, &d) && d >= 0.0 && d <= 1.0;
      if (ok) params.dup_rate = d;
    } else if (std::strcmp(arg, "--reorder-rate") == 0) {
      const char* v = next();
      double d = 0;
      ok = v != nullptr && parse_f64(v, &d) && d >= 0.0 && d <= 1.0;
      if (ok) params.reorder_rate = d;
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      const char* v = next();
      std::uint64_t n = 0;
      ok = v != nullptr && parse_u64(v, &n);
      if (ok) params.fault_seed = n;
    } else if (std::strcmp(arg, "--json") == 0) {
      const char* v = next();
      ok = v != nullptr;
      if (ok) json_path = v;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      const char* v = next();
      ok = v != nullptr && parse_u32(v, &jobs);
    } else if (std::strcmp(arg, "--perf") == 0) {
      perf = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      const char* v = next();
      ok = v != nullptr;
      if (ok) params.trace_path = v;
    } else if (std::strcmp(arg, "--trace-limit") == 0) {
      const char* v = next();
      std::uint64_t n = 0;
      ok = v != nullptr && parse_u64(v, &n);
      if (ok) params.trace_limit = n;
    } else if (std::strcmp(arg, "--percentiles") == 0) {
      params.percentiles = true;
    } else if (std::strcmp(arg, "--only") == 0) {
      const char* v = next();
      ok = v != nullptr;
      if (ok) only = split_csv(v);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s\n", arg);
      return 2;
    }
  }

  if (list_only) {
    for (const auto& e : experiments()) {
      std::printf("%-24s %s\n", e.name.c_str(), e.title.c_str());
    }
    return 0;
  }

  std::vector<const Experiment*> selected;
  for (const auto& e : experiments()) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), e.name) == only.end()) {
      continue;
    }
    selected.push_back(&e);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no experiments matched\n");
    return 2;
  }

  const bool tracing = params.trace_path.has_value();
  auto merged_collector =
      tracing ? std::make_shared<sim::trace::Collector>() : nullptr;

  // One finished experiment: its report, its private trace collector,
  // and the wall time of its run() body.
  struct ExperimentResult {
    std::unique_ptr<Report> report;
    std::shared_ptr<sim::trace::Collector> collector;
    double wall_ms = 0.0;
  };

  // Experiments and (through params.executor) their sweep points share
  // the pool; collect() returns in submission order, so everything
  // below this block — printing, the JSON document, the merged trace —
  // is byte-identical for every --jobs value.
  parallel::Executor executor(jobs);
  parallel::Sweep<ExperimentResult> sweep(&executor);
  for (const Experiment* e : selected) {
    sweep.submit([e, &params, &executor, tracing] {
      ExperimentResult out;
      out.report = std::make_unique<Report>(e->name, e->title);
      Params p = params;  // per-experiment copy: bind() is private to it
      p.executor = &executor;
      if (tracing) {
        out.collector = std::make_shared<sim::trace::Collector>();
        p.collector = out.collector;
      }
      p.bind(out.report.get());
      if (p.smoke) out.report->param("smoke", Json{true});
      const auto t0 = std::chrono::steady_clock::now();
      e->run(*out.report, p);
      out.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      return out;
    });
  }
  std::vector<ExperimentResult> results;
  try {
    results = sweep.collect();
  } catch (const std::exception& e) {
    // A run that cannot produce its numbers (a reliable put that
    // exhausted its retries, a violated invariant) fails the binary.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::vector<Json> reports;
  for (ExperimentResult& r : results) {
    if (perf) {
      r.report->enable_perf(true);
      r.report->perf("wall_ms", r.wall_ms);
    }
    r.report->print();
    reports.push_back(r.report->to_json());
    if (tracing && r.collector != nullptr) {
      merged_collector->merge(std::move(*r.collector));
    }
  }
  params.collector = merged_collector;

  if (!json_path.empty()) {
    const Json doc = make_document(reports);
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << doc.dump(2);
    std::printf("\nwrote %s (%zu experiment%s)\n", json_path.c_str(),
                reports.size(), reports.size() == 1 ? "" : "s");
  }

  if (params.collector != nullptr) {
    if (params.collector->empty()) {
      std::fprintf(stderr,
                   "--trace: no traced runs (the selected experiments do "
                   "not wire params.trace_config())\n");
      return 1;
    }
    if (!params.collector->write_file(*params.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", params.trace_path->c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu traced run%s)\n",
                params.trace_path->c_str(), params.collector->size(),
                params.collector->size() == 1 ? "" : "s");
  }
  return 0;
}

}  // namespace netddt::bench
