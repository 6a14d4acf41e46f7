// Tests for the experiment-harness thread pool (Executor) and ordered
// fan-out (Sweep): submission-order collection, nested sweeps via
// help-until work stealing, inline/serial degeneration, and exception
// propagation. Also the shared state sweep points touch concurrently:
// the dataloop/plan cache and a type's once-computed region facts
// (the CI thread-sanitizer job runs this binary).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench/lib/parallel.hpp"
#include "dataloop/cache.hpp"
#include "ddt/datatype.hpp"

namespace netddt::bench::parallel {
namespace {

TEST(Executor, JobsResolveToAtLeastOne) {
  Executor inline_exec(1);
  EXPECT_EQ(inline_exec.jobs(), 1u);
  EXPECT_TRUE(inline_exec.serial());

  Executor hw(0);  // 0 = hardware concurrency
  EXPECT_GE(hw.jobs(), 1u);

  Executor four(4);
  EXPECT_EQ(four.jobs(), 4u);
  EXPECT_FALSE(four.serial());
}

TEST(Executor, InlineModeRunsOnCallingThread) {
  Executor exec(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  exec.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);  // already done: submit() executed inline
}

TEST(Sweep, CollectsInSubmissionOrder) {
  for (unsigned jobs : {1u, 4u}) {
    Executor exec(jobs);
    Sweep<int> sweep(&exec);
    for (int i = 0; i < 64; ++i) {
      sweep.submit([i] {
        if (i % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return i * i;
      });
    }
    const auto out = sweep.collect();
    ASSERT_EQ(out.size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(Sweep, NullExecutorRunsInline) {
  Sweep<int> sweep(nullptr);
  int side_effects = 0;
  sweep.submit([&] { return ++side_effects; });
  sweep.submit([&] { return ++side_effects; });
  EXPECT_EQ(side_effects, 2);  // ran at submit time
  EXPECT_EQ(sweep.collect(), (std::vector<int>{1, 2}));
}

TEST(Sweep, NestedSweepsDoNotDeadlock) {
  // Outer tasks each run an inner sweep on the same executor; with only
  // 2 threads total, completion requires the blocked outer tasks to
  // help-execute the inner points.
  Executor exec(2);
  Sweep<int> outer(&exec);
  for (int o = 0; o < 8; ++o) {
    outer.submit([o, &exec] {
      Sweep<int> inner(&exec);
      for (int i = 0; i < 8; ++i) {
        inner.submit([o, i] { return o * 100 + i; });
      }
      const auto vals = inner.collect();
      return std::accumulate(vals.begin(), vals.end(), 0);
    });
  }
  const auto sums = outer.collect();
  ASSERT_EQ(sums.size(), 8u);
  for (int o = 0; o < 8; ++o) {
    EXPECT_EQ(sums[static_cast<size_t>(o)], o * 800 + 28);
  }
}

TEST(Sweep, RethrowsFirstExceptionInSubmissionOrder) {
  for (unsigned jobs : {1u, 4u}) {
    Executor exec(jobs);
    Sweep<int> sweep(&exec);
    sweep.submit([] { return 1; });
    sweep.submit([]() -> int { throw std::runtime_error("first"); });
    sweep.submit([]() -> int { throw std::runtime_error("second"); });
    try {
      sweep.collect();
      FAIL() << "collect() must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first");
    }
  }
}

TEST(Sweep, MoveOnlyResultsSupported) {
  Executor exec(2);
  Sweep<std::unique_ptr<int>> sweep(&exec);
  for (int i = 0; i < 8; ++i) {
    sweep.submit([i] { return std::make_unique<int>(i); });
  }
  auto out = sweep.collect();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(*out[static_cast<size_t>(i)], i);
}

TEST(Executor, ManyTasksAllExecute) {
  Executor exec(4);
  std::atomic<int> ran{0};
  Sweep<int> sweep(&exec);
  for (int i = 0; i < 500; ++i) {
    sweep.submit([&ran] { return ran.fetch_add(1) * 0; });
  }
  sweep.collect();
  EXPECT_EQ(ran.load(), 500);
}

TEST(SharedTypes, PlanCacheAndRegionFactsAreThreadSafe) {
  // Threads released together make the first region_facts() call on one
  // shared TypePtr at the same moment, then race on the plan cache with
  // the shared type and with their own structurally equal copy.
  const auto make = [] {
    return ddt::Datatype::hvector(64, 3, 40, ddt::Datatype::float64());
  };
  const ddt::TypePtr shared = make();
  dataloop::dataloop_cache_clear();

  struct Seen {
    const void* facts = nullptr;
    std::uint64_t shared_regions = 0;
    std::uint64_t own_regions = 0;
    const void* shared_loops = nullptr;
    const void* own_loops = nullptr;
    const void* program = nullptr;
  };
  constexpr int kThreads = 4;
  std::vector<Seen> seen(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Seen& s = seen[static_cast<std::size_t>(i)];
      s.facts = &shared->region_facts();
      s.shared_regions = shared->region_count(2);
      const ddt::TypePtr own = make();
      const auto plan = i % 2 == 0 ? dataloop::plan_cached(shared, 2)
                                   : dataloop::plan_cached(own, 2);
      s.program = plan.program.get();
      s.shared_loops = dataloop::compile_cached(shared, 2).get();
      s.own_loops = dataloop::plan_cached(own, 2).loops.get();
      s.own_regions = own->region_count(2);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  for (const Seen& s : seen) {
    EXPECT_EQ(s.facts, &shared->region_facts());
    EXPECT_EQ(s.shared_regions, 127u);  // 2 x 64 blocks, joined at the seam
    EXPECT_EQ(s.own_regions, 127u);
    EXPECT_EQ(s.shared_loops, seen.front().shared_loops);
    EXPECT_EQ(s.own_loops, seen.front().shared_loops);
    EXPECT_EQ(s.program, seen.front().program);
  }
  EXPECT_NE(seen.front().program, nullptr);
  EXPECT_EQ(dataloop::dataloop_cache_stats().entries, 1u);
}

}  // namespace
}  // namespace netddt::bench::parallel
