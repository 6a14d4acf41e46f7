// Tests for the discrete-event engine, RNG determinism, and statistics.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/arrivals.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace netddt::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(ns(1), 1000);
  EXPECT_EQ(us(1), 1'000'000);
  EXPECT_EQ(from_ns(81.92), 81920);
  EXPECT_DOUBLE_EQ(to_ns(81920), 81.92);
}

TEST(Time, TransferTimeAtLineRate) {
  // 2 KiB at 200 Gbit/s = 81.92 ns.
  EXPECT_EQ(transfer_time(2048, 200.0), 81920);
  EXPECT_EQ(transfer_time(0, 200.0), 0);
  EXPECT_GE(transfer_time(1, 1e9), 1);  // never zero for non-empty data
}

TEST(Time, ThroughputInverseOfTransferTime) {
  const Time t = transfer_time(1 << 20, 100.0);
  EXPECT_NEAR(throughput_gbps(1 << 20, t), 100.0, 0.01);
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(ns(30), [&] { order.push_back(3); });
  eng.schedule(ns(10), [&] { order.push_back(1); });
  eng.schedule(ns(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), ns(30));
}

TEST(Engine, FifoTieBreakAtSameTime) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.schedule(ns(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule(ns(1), [&] {
    ++fired;
    eng.schedule(ns(1), [&] {
      ++fired;
      eng.schedule(ns(1), [&] { ++fired; });
    });
  });
  eng.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eng.now(), ns(3));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  eng.schedule(ns(10), [&] { ++fired; });
  eng.schedule(ns(20), [&] { ++fired; });
  eng.run_until(ns(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilAdvancesClockToDeadline) {
  // Regression: with a non-empty queue whose next event lies PAST the
  // deadline, run_until must still advance now() to the deadline (it
  // used to leave the clock wherever the last executed event ended).
  Engine eng;
  int fired = 0;
  eng.schedule(ns(100), [&] { ++fired; });
  EXPECT_EQ(eng.run_until(ns(40)), ns(40));
  EXPECT_EQ(eng.now(), ns(40));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.pending(), 1u);
  // A second slice up to the event's time runs it exactly once.
  EXPECT_EQ(eng.run_until(ns(100)), ns(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, RunUntilIdempotentOnEmptyQueue) {
  Engine eng;
  EXPECT_EQ(eng.run_until(ns(7)), ns(7));
  EXPECT_EQ(eng.run_until(ns(7)), ns(7));  // same deadline: no movement
  EXPECT_EQ(eng.now(), ns(7));
}

TEST(Engine, TracksMaxPendingHighWatermark) {
  Engine eng;
  eng.schedule(ns(1), [] {});
  eng.schedule(ns(2), [] {});
  eng.schedule(ns(3), [] {});
  EXPECT_EQ(eng.max_pending(), 3u);
  eng.run();
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.max_pending(), 3u);  // watermark survives the drain
}

TEST(InlineFunction, SmallCallableStaysInline) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.heap_allocated());
  EXPECT_EQ(cb.callable_size(), sizeof(int*));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, OversizedCallableFallsBackToHeap) {
  std::array<char, InlineCallback::kInlineBytes + 1> big{};
  big[0] = 42;
  char seen = 0;
  InlineCallback cb([big, &seen] { seen = big[0]; });
  EXPECT_TRUE(cb.heap_allocated());
  cb();
  EXPECT_EQ(seen, 42);
}

TEST(InlineFunction, MoveTransfersCallableAndEmptiesSource) {
  int hits = 0;
  InlineCallback a([&hits] { ++hits; });
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.callable_size(), 0);
  b();
  EXPECT_EQ(hits, 1);
  InlineCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, AcceptsMoveOnlyCallables) {
  // std::function requires copyable callables; the engine's callback
  // type must not.
  auto flag = std::make_unique<bool>(false);
  bool* raw = flag.get();
  InlineCallback cb([owned = std::move(flag)] { *owned = true; });
  EXPECT_FALSE(cb.heap_allocated());
  cb();
  EXPECT_TRUE(*raw);
}

TEST(InlineFunction, NonTrivialCallableDestroyedOnce) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    InlineCallback a([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // capture keeps it alive
    InlineCallback b(std::move(a));
    b();
    b.reset();
    EXPECT_TRUE(watch.expired());  // reset destroyed the capture
  }
}

TEST(Engine, ModelSizedCallbacksNeverHeapAllocate) {
  Engine eng;
  // 56-byte capture: the upper end of what the NIC/DMA models schedule.
  std::array<char, 48> pad{};
  int hits = 0;
  for (int i = 0; i < 32; ++i) {
    eng.schedule(ns(i), [pad, &hits] { hits += pad[0] + 1; });
  }
  eng.run();
  EXPECT_EQ(hits, 32);
  EXPECT_EQ(eng.callback_heap_allocs(), 0u);
  EXPECT_EQ(eng.executed(), 32u);
}

TEST(Engine, CountsAndBucketsOversizedCallbacks) {
  Engine eng;
  std::array<char, InlineCallback::kInlineBytes + 1> big{};
  eng.schedule(0, [big] { (void)big; });
  eng.schedule(0, [] {});
  eng.run();
  EXPECT_EQ(eng.callback_heap_allocs(), 1u);
  const auto& hist = eng.callback_size_hist();
  EXPECT_EQ(hist[Engine::kSizeBuckets - 1], 1u);  // heap bucket
  EXPECT_EQ(hist[0], 1u);  // captureless lambda: 1 byte
  std::uint64_t total = 0;
  for (auto n : hist) total += n;
  EXPECT_EQ(total, 2u);
}

TEST(Engine, OrderingInvariantUnderInterleavedScheduling) {
  // Stress the (time, seq) invariant: callbacks schedule more events at
  // already-populated times; execution must be globally time-ordered
  // with FIFO tie-break (scheduling order within a timestamp).
  Engine eng;
  std::vector<std::pair<Time, int>> fired;
  int next_id = 0;
  Rng rng(123);
  for (int i = 0; i < 64; ++i) {
    const Time t = static_cast<Time>(rng.below(16));
    const int id = next_id++;
    eng.schedule(t, [&, id] {
      fired.emplace_back(eng.now(), id);
      if (fired.size() < 512) {
        const Time dt = static_cast<Time>(rng.below(4));
        const int nid = next_id++;
        eng.schedule(dt, [&, nid] { fired.emplace_back(eng.now(), nid); });
      }
    });
  }
  eng.run();
  EXPECT_EQ(eng.executed(), fired.size());
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first) << "time went backwards";
  }
  EXPECT_EQ(eng.callback_heap_allocs(), 0u);
}

TEST(Engine, SlotReuseSurvivesDeepRecycling) {
  // Self-rescheduling chains churn slots far past the slab's first
  // chunk, so every slot recycles many times.
  struct Self {
    Engine* eng;
    std::uint64_t* remaining;
    std::uint64_t* hits;
    void operator()() const {
      if (*remaining == 0) return;
      ++*hits;
      if (--*remaining > 0) eng->schedule(1, Self{eng, remaining, hits});
    }
  };
  Engine eng;
  std::uint64_t remaining = 5000;
  std::uint64_t hits = 0;
  for (int i = 0; i < 8; ++i) {
    eng.schedule(i, Self{&eng, &remaining, &hits});
  }
  eng.run();
  EXPECT_EQ(hits, 5000u);
  EXPECT_EQ(eng.callback_heap_allocs(), 0u);
}

TEST(Metrics, CounterIsMonotonic) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.b");
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&reg.counter("a.b"), &c);
}

TEST(Metrics, GaugeTracksPeak) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("q");
  g.add(5);
  g.add(7);
  g.sub(10);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.peak(), 12);
  g.set(100);
  EXPECT_EQ(g.peak(), 100);
}

TEST(Metrics, SeriesTimeWeightedMean) {
  MetricsRegistry reg;
  Series& s = reg.series("depth");
  s.record(0, 2.0);    // held for 10
  s.record(10, 6.0);   // held for 10
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(20), 4.0);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Metrics, SeriesFinalizeClosesAtEndTime) {
  MetricsRegistry reg;
  Series& s = reg.series("depth");
  s.record(0, 2.0);
  s.record(10, 6.0);
  reg.finalize_series(25);
  // A closing point at the end time holding the last value...
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.points().back().first, 25);
  EXPECT_DOUBLE_EQ(s.points().back().second, 6.0);
  // ...so the time-weighted mean over the full interval is unchanged.
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(25), (2.0 * 10 + 6.0 * 15) / 25);
  // Idempotent: finalizing again at the same (or earlier) end is a no-op.
  s.finalize(25);
  s.finalize(20);
  EXPECT_EQ(s.size(), 3u);
  // An empty series stays empty.
  Series& empty = reg.series("untouched");
  empty.finalize(25);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(Metrics, SnapshotIsDetachedCopy) {
  MetricsRegistry reg;
  reg.counter("c").add(2);
  reg.gauge("g").set(9);
  MetricsSnapshot snap = reg.snapshot();
  reg.counter("c").add(40);  // must not affect the snapshot
  EXPECT_EQ(snap.counter("c"), 2u);
  EXPECT_EQ(snap.gauge_peak("g"), 9);
  EXPECT_TRUE(snap.has_counter("c"));
  EXPECT_FALSE(snap.has_counter("missing"));
  EXPECT_EQ(snap.counter("missing"), 0u);
}

TEST(Engine, TicketedEventsFireInTicketOrder) {
  // A ticket drawn before a later schedule() keeps its place: the
  // ticketed event ties at t=10 ns with one scheduled after the draw,
  // and fires first, even though it enters the heap last.
  Engine eng;
  std::vector<int> order;
  const std::uint64_t first = eng.tickets(2);
  eng.schedule_at(ns(10), [&] { order.push_back(3); });
  eng.schedule_at(ns(5), [&] {
    order.push_back(1);
    eng.schedule_ticketed(ns(10), first + 1, [&] { order.push_back(2); });
  });
  eng.schedule_ticketed(ns(5), first, [&] { order.push_back(0); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(eng.executed(), 4u);
}

TEST(Engine, SchedulingInThePastIsAViolation) {
  Engine eng;
  eng.schedule(ns(10), [&] {
    try {
      eng.schedule_at(ns(4), [] {});
      ADD_FAILURE() << "an event in the past was accepted";
    } catch (const check::Violation& v) {
      EXPECT_NE(std::string(v.what()).find(
                    "scheduled for t=4000 ps, before now=10000 ps"),
                std::string::npos)
          << v.what();
    }
  });
  eng.run();
}

TEST(Engine, TicketNeverDrawnIsAViolation) {
  Engine eng;
  const std::uint64_t seq = eng.ticket();
  try {
    eng.schedule_ticketed(ns(1), seq + 1, [] {});
    FAIL() << "an undrawn ticket was accepted";
  } catch (const check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find(
                  "seq " + std::to_string(seq + 1) + ", never drawn (next seq " +
                  std::to_string(seq + 1) + ")"),
              std::string::npos)
        << v.what();
  }
  EXPECT_TRUE(eng.empty());
}

TEST(Engine, TicketedEventInThePastIsAViolation) {
  Engine eng;
  const std::uint64_t seq = eng.ticket();
  eng.run_until(ns(20));
  try {
    eng.schedule_ticketed(ns(7), seq, [] {});
    FAIL() << "a ticketed event in the past was accepted";
  } catch (const check::Violation& v) {
    EXPECT_NE(std::string(v.what()).find(
                  "(seq " + std::to_string(seq) +
                  ") scheduled for t=7000 ps, before now=20000 ps"),
              std::string::npos)
        << v.what();
  }
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine eng;
  Time seen = -1;
  eng.schedule(ns(5), [&] {
    eng.schedule(-ns(3), [&] { seen = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(seen, ns(5));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeIsInclusive) {
  Rng r(7);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 4000; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= (v == -2);
    hit_hi |= (v == 2);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Stats, SummaryMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25);
}

TEST(Stats, PercentileClampsOutOfRangeP) {
  std::vector<double> v{10, 20, 30, 40};
  // Out-of-range p means min / max, not UB.
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 250.0), 40);
  const std::vector<double> single{7.0};
  EXPECT_DOUBLE_EQ(percentile(single, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(single, 50), 7.0);
  EXPECT_DOUBLE_EQ(percentile(single, 100), 7.0);
  EXPECT_DOUBLE_EQ(percentile(single, -1), 7.0);
  EXPECT_DOUBLE_EQ(percentile(single, 101), 7.0);
}

TEST(Stats, PercentileDuplicateHeavySamples) {
  std::vector<double> v(1000, 5.0);
  v[0] = 1.0;
  v[999] = 9.0;
  const std::vector<double>& cv = v;
  EXPECT_DOUBLE_EQ(percentile(cv, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(cv, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(cv, 100), 9.0);
}

TEST(Stats, PercentileConstOverloadMatchesInPlace) {
  // The const overload's bounded-heap tail path and the nth_element
  // in-place path must agree exactly, including the interpolated cases.
  Rng rng(99);
  std::vector<double> v;
  v.reserve(4096);
  for (int i = 0; i < 4096; ++i) v.push_back(rng.uniform() * 1e6);
  const std::vector<double>& cv = v;
  for (double p : {-1.0, 0.0, 0.37, 1.0, 12.5, 50.0, 75.0, 99.0, 99.9,
                   99.99, 100.0, 180.0}) {
    std::vector<double> scratch = v;
    EXPECT_DOUBLE_EQ(percentile(cv, p), percentile(scratch, p)) << p;
  }
}

TEST(Arrivals, RejectsInvalidConfigs) {
  ArrivalConfig c;
  c.rate = 0.0;
  EXPECT_THROW(ArrivalProcess(c, 1), std::invalid_argument);
  c.rate = -1e6;
  EXPECT_THROW(ArrivalProcess(c, 1), std::invalid_argument);
  c = {};
  c.kind = ArrivalKind::kOnOff;
  c.on_fraction = 0.0;
  EXPECT_THROW(ArrivalProcess(c, 1), std::invalid_argument);
  c.on_fraction = 1.5;
  EXPECT_THROW(ArrivalProcess(c, 1), std::invalid_argument);
  c.on_fraction = 0.25;
  c.burst_len = 0.5;
  EXPECT_THROW(ArrivalProcess(c, 1), std::invalid_argument);
}

TEST(Arrivals, DegenerateOnOffCollapsesToPoisson) {
  ArrivalConfig onoff;
  onoff.kind = ArrivalKind::kOnOff;
  onoff.on_fraction = 1.0;  // always ON: no bursts left to model
  ArrivalConfig poisson;
  poisson.kind = ArrivalKind::kPoisson;
  ArrivalProcess a(onoff, 5), b(poisson, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Arrivals, KindsAgreeOnLongRunRate) {
  constexpr int kN = 200'000;
  const auto mean_gap = [](ArrivalKind kind) {
    ArrivalConfig c;
    c.kind = kind;
    c.rate = 2e6;  // 500 ns mean gap
    ArrivalProcess ap(c, 17);
    Time last = 0;
    for (int i = 0; i < kN; ++i) last = ap.next();
    return static_cast<double>(last) / kN;
  };
  const double poisson = mean_gap(ArrivalKind::kPoisson);
  const double onoff = mean_gap(ArrivalKind::kOnOff);
  EXPECT_NEAR(poisson, 500'000.0, 500'000.0 * 0.02);
  EXPECT_NEAR(onoff, poisson, poisson * 0.02);
}

TEST(Arrivals, FeedDispatchesAsAnUpFrontSchedule) {
  // Two sources on the same stream tie at every arrival, each arrival
  // schedules a zero-delay event, and a marker posted after the
  // schedules ties with their second arrivals (so it must fire after
  // them). Feeds must dispatch exactly as the two schedules posted up
  // front, holding one arrival per source in the heap.
  constexpr std::uint64_t kCount = 50;
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kOnOff;
  struct Step {
    Time at;
    int id;
    std::uint64_t k;
    bool operator==(const Step&) const = default;
  };
  using Log = std::vector<Step>;
  const auto on_arrival = [](Engine& eng, Log& log, int id,
                             std::uint64_t k) {
    log.push_back({eng.now(), id, k});
    eng.schedule(0, [&eng, &log, id, k] {
      log.push_back({eng.now(), 100 + id, k});
    });
  };
  ArrivalProcess peek(cfg, /*stream=*/7);
  peek.next();
  const Time second = peek.next();

  Engine ref;
  Log want;
  for (int s = 0; s < 2; ++s) {
    ArrivalProcess process(cfg, /*stream=*/7);
    for (std::uint64_t k = 0; k < kCount; ++k) {
      ref.schedule_at(process.next(),
                      [&, s, k] { on_arrival(ref, want, s, k); });
    }
  }
  ref.schedule_at(second, [&] { want.push_back({ref.now(), -1, 0}); });
  ref.run();

  Engine eng;
  Log got;
  std::vector<ArrivalFeed> feeds;
  feeds.reserve(2);
  for (int s = 0; s < 2; ++s) feeds.emplace_back(cfg, 7, eng, kCount);
  for (int s = 0; s < 2; ++s) {
    feeds[s].start([&, s](std::uint64_t k, Time at) {
      EXPECT_EQ(at, eng.now());
      on_arrival(eng, got, s, k);
    });
  }
  eng.schedule_at(second, [&] { got.push_back({eng.now(), -1, 0}); });
  eng.run();

  ASSERT_EQ(got.size(), 4 * kCount + 1);
  EXPECT_TRUE(got == want);
  EXPECT_EQ(ref.max_pending(), 2 * kCount + 1);
  EXPECT_LE(eng.max_pending(), 5u);
}

TEST(Time, SerializationClockCarriesFractionalPicoseconds) {
  // 1000-byte packets at 7 Gbit/s: 1142857.142... ps each. Summing the
  // floor per packet would drift ~143 ps per thousand packets; the
  // carry keeps the N-packet sum within 1 ps of the whole message.
  SerializationClock clock;
  Time sum = 0;
  constexpr int kPkts = 1000;
  for (int i = 0; i < kPkts; ++i) sum += clock.advance(1000, 7.0);
  const Time whole = transfer_time(1000ull * kPkts, 7.0);
  EXPECT_LE(std::abs(sum - whole), 1);
  EXPECT_GT(sum, kPkts * transfer_time(1000, 7.0));  // floors drift low
}

TEST(Time, SerializationClockExactAtExactRates) {
  // 2 KiB at 200 Gbit/s is exactly 81920 ps: the carry must stay zero
  // so the lossless fast path is bit-identical to transfer_time sums.
  SerializationClock clock;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(clock.advance(2048, 200.0), 81920);
  }
  EXPECT_EQ(clock.advance(0, 200.0), 0);
  // The min-1-ps rule for tiny packets resets the carry.
  EXPECT_GE(clock.advance(1, 1e9), 1);
}

TEST(Stats, GeomeanMatchesHandComputation) {
  EXPECT_NEAR(geomean({1.0, 8.0}), 2.828427, 1e-5);
  EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
}

TEST(Stats, Log2HistogramBuckets) {
  Log2Histogram h(1.0, 4);  // [1,2) [2,4) [4,8) [8,16)
  for (double x : {1.0, 1.5, 2.0, 5.0, 9.0, 100.0, 0.5}) h.add(x);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(2), 4.0);
}

}  // namespace
}  // namespace netddt::sim
