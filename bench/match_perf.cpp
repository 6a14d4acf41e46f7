// Matching-unit lookup-throughput microbenchmark: the linear reference
// scan (tests/reference/linear_match.hpp) vs the hashed MatchList, as a
// function of how many receives are posted.
//
// Workloads (all on a MatchList populated with N persistent entries
// spread over 64 peer prefixes, one wildcard ignore-mask class mixed
// in so the hashed engine exercises its multi-class probe):
//
//  - lookup: match an existing entry's bits (hit); use_once=false, so
//    the list stays at N entries and the number is pure search rate.
//  - churn: append a use_once entry + match it away, the steady-state
//    post/consume cycle of the service experiments.
//
// The linear scan is O(N) per lookup, the hashed engine O(#classes),
// so the ratio must grow with N; the acceptance bar for this refactor
// is >= 5x at N = 10k posted receives.
//
// Outside the experiment registry on purpose: wall-clock throughput is
// nondeterministic and must never enter the deterministic JSON reports.
// --json writes the small ad-hoc document archived as BENCH_pr6.json.
//
// usage: match_perf [--lookups N] [--reps N] [--json PATH]

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "p4/match.hpp"
#include "tests/reference/linear_match.hpp"

namespace {

using netddt::p4::ListKind;
using netddt::p4::MatchEntry;
using netddt::p4::MatchList;
using LinearList = netddt::p4::reference::LinearMatchList;

constexpr std::uint64_t kPeers = 64;

std::uint64_t key_of(std::uint64_t peer, std::uint64_t seq) {
  return ((peer + 1) << 40) | seq;
}

// xorshift64: cheap deterministic pick of which entry to look up, so
// both engines see the identical probe sequence.
std::uint64_t next_pick(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

template <class List>
void populate(List& list, std::uint64_t posted) {
  for (std::uint64_t i = 0; i < posted; ++i) {
    MatchEntry e;
    if (i % 97 == 96) {
      // A sprinkling of wildcard entries (ignore the low sequence bits)
      // in the overflow list: a second ignore-mask class for the hashed
      // engine and the overflow fallthrough for both.
      e.match_bits = key_of(i % kPeers, 0);
      e.ignore_bits = (1ull << 40) - 1;
      e.use_once = false;
      list.append(ListKind::kOverflow, e);
      continue;
    }
    e.match_bits = key_of(i % kPeers, i / kPeers);
    e.use_once = false;
    list.append(ListKind::kPriority, e);
  }
}

template <class List>
double lookups_per_sec(std::uint64_t posted, std::uint64_t lookups) {
  List list;
  populate(list, posted);
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  std::uint64_t hits = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < lookups; ++i) {
    const std::uint64_t pick = next_pick(rng) % posted;
    const std::uint64_t bits = key_of(pick % kPeers, pick / kPeers);
    hits += list.match(bits).has_value();
  }
  const double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  if (hits != lookups) {
    std::fprintf(stderr, "FAIL: %llu of %llu lookups missed\n",
                 static_cast<unsigned long long>(lookups - hits),
                 static_cast<unsigned long long>(lookups));
    std::exit(1);
  }
  return static_cast<double>(lookups) / sec;
}

template <class List>
double churns_per_sec(std::uint64_t posted, std::uint64_t cycles) {
  List list;
  populate(list, posted);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < cycles; ++i) {
    MatchEntry e;
    e.match_bits = key_of(kPeers + 1, i);  // prefix no resident entry has
    list.append(ListKind::kPriority, e);   // use_once: match unlinks it
    if (!list.match(e.match_bits)) {
      std::fprintf(stderr, "FAIL: churn entry did not match\n");
      std::exit(1);
    }
  }
  const double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return static_cast<double>(cycles) / sec;
}

struct Row {
  const char* workload;
  std::uint64_t posted;
  double linear;
  double hashed;
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t lookups = 2'000'000;
  int reps = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lookups") == 0 && i + 1 < argc) {
      lookups = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--lookups N] [--reps N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::uint64_t counts[] = {100, 1000, 10000};
  std::vector<Row> rows;
  for (const char* workload : {"lookup", "churn"}) {
    const bool churn = std::strcmp(workload, "churn") == 0;
    for (std::uint64_t posted : counts) {
      // The linear scan walks posted/2 entries per hit on average;
      // shrink its op count so a rep stays ~fixed wall time.
      const std::uint64_t lin_ops = lookups / (1 + posted / 50);
      Row r{workload, posted, 0.0, 0.0};
      for (int rep = 0; rep < reps; ++rep) {
        if (churn) {
          r.linear = std::max(
              r.linear, churns_per_sec<LinearList>(posted, lin_ops));
          r.hashed = std::max(
              r.hashed, churns_per_sec<MatchList>(posted, lookups));
        } else {
          r.linear = std::max(
              r.linear, lookups_per_sec<LinearList>(posted, lin_ops));
          r.hashed = std::max(
              r.hashed, lookups_per_sec<MatchList>(posted, lookups));
        }
      }
      rows.push_back(r);
    }
  }

  std::printf("matching-unit throughput (best of %d)\n", reps);
  std::printf("  %-8s %8s %14s %14s %10s\n", "workload", "posted",
              "linear", "hashed", "speedup");
  double at_10k = 0.0;
  for (const Row& r : rows) {
    const double speedup = r.hashed / r.linear;
    if (std::strcmp(r.workload, "lookup") == 0 && r.posted == 10000) {
      at_10k = speedup;
    }
    std::printf("  %-8s %8llu %11.2f M/s %11.2f M/s %9.2fx\n", r.workload,
                static_cast<unsigned long long>(r.posted), r.linear / 1e6,
                r.hashed / 1e6, speedup);
  }
  std::printf("  lookup speedup at 10k posted: %.1fx "
              "(acceptance bar: >= 5x)\n",
              at_10k);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"schema_version\": 1,\n"
        << "  \"benchmark\": \"match_perf\",\n  \"unit\": \"ops/s\",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"workload\": \"" << r.workload
          << "\", \"posted\": " << r.posted << ", \"linear\": "
          << static_cast<std::uint64_t>(r.linear) << ", \"hashed\": "
          << static_cast<std::uint64_t>(r.hashed) << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"lookup_speedup_at_10k\": "
        << static_cast<std::uint64_t>(at_10k * 100) / 100.0 << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  return at_10k >= 5.0 ? 0 : 1;
}
